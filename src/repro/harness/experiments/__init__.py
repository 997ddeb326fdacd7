"""One module per paper figure/table.

Each exposes ``run(params=None)`` and, if ``run`` takes params, their
class as ``PARAMS``: ``run_all --quick`` builds its overrides with it.
"""

from repro.harness.experiments import (ablation, exp_cluster, exp_policy,
                                       exp_serve, fig01_dockerhub,
                                       fig02_motivation, fig06_dacapo_spec,
                                       fig07_scaling, fig08_shares,
                                       fig09_hibench, fig10_npb,
                                       fig11_elastic_dacapo,
                                       fig12_heap_traces, overhead)

#: Registry used by the run-all driver and the benchmark suite.
ALL_EXPERIMENTS = {
    "fig01": fig01_dockerhub,
    "fig02": fig02_motivation,
    "fig06": fig06_dacapo_spec,
    "fig07": fig07_scaling,
    "fig08": fig08_shares,
    "fig09": fig09_hibench,
    "fig10": fig10_npb,
    "fig11": fig11_elastic_dacapo,
    "fig12": fig12_heap_traces,
    "overhead": overhead,
    "ablation": ablation,
    "exp_serve": exp_serve,
    "exp_cluster": exp_cluster,
    "exp_policy": exp_policy,
}

__all__ = ["ALL_EXPERIMENTS"] + [m.__name__.rsplit(".", 1)[-1]
                                 for m in ALL_EXPERIMENTS.values()]
