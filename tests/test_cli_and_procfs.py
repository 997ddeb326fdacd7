"""Tests for the CLI entry point, extra procfs paths, and Jvm.kill."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.container.spec import ContainerSpec
from repro.jvm.flags import JvmConfig
from repro.jvm.jvm import Jvm
from repro.units import gib, mib
from repro.workloads.base import JavaWorkload
from repro.world import World


class TestCli:
    def test_info(self, capsys):
        assert cli_main(["info"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out and "HPDC" in out

    def test_census(self, capsys):
        # The census table comes from `repro run fig01`; the old
        # `repro census` shortcut is gone.
        assert cli_main(["run", "--quick", "fig01"]) == 0
        assert "62" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            cli_main(["census"])
        assert exc.value.code == 2

    def test_demo(self, capsys):
        assert cli_main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "effective CPUs" in out

    def test_run_forwards(self, capsys):
        assert cli_main(["run", "--quick", "fig01"]) == 0
        assert "DockerHub" in capsys.readouterr().out

    def test_run_export_writes_json(self, tmp_path, capsys):
        assert cli_main(["run", "--export", str(tmp_path), "--no-cache",
                         "fig01"]) == 0
        assert (tmp_path / "fig01.json").is_file()

    def test_run_passes_arguments_through_unparsed(self, monkeypatch):
        import repro.harness.run_all as run_all
        seen = []
        monkeypatch.setattr(run_all, "main",
                            lambda argv: seen.append(argv) or 0)
        argv = ["fig07", "fig08", "fig10", "ablation", "--quick",
                "--jobs", "4"]
        assert cli_main(["run", *argv]) == 0
        assert seen == [argv]

    def test_other_commands_reject_unknown_arguments(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["demo", "--export", "x"])
        assert exc.value.code == 2

    def test_no_command_prints_help(self, capsys):
        assert cli_main([]) == 2
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["info"], ["bench"]])
    def test_closed_pipe_exits_without_traceback(self, command):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen([sys.executable, "-m", "repro", *command],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        proc.stdout.close()           # the reader leaves before any write
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert b"Traceback" not in err and b"Exception ignored" not in err


class TestProcfs:
    @pytest.fixture
    def world(self):
        return World(ncpus=8, memory=gib(16))

    def test_proc_stat(self, world):
        c = world.containers.create(ContainerSpec("c0"))
        for i in range(2):
            c.spawn_thread(f"w{i}").assign_work(1e9)
        world.run(until=3.0)
        text = world.host_sysfs.read("/proc/stat")
        fields = text.splitlines()[0].split()
        busy_jiffies, idle_jiffies = int(fields[1]), int(fields[4])
        assert busy_jiffies == pytest.approx(600, abs=5)      # 2 cores * 3 s
        assert idle_jiffies == pytest.approx(1800, abs=5)     # 6 idle * 3 s

    def test_proc_stat_survives_container_destroy(self):
        """Busy jiffies never decrease, even when the container that
        used them is destroyed, and busy plus idle is the host's capacity
        over the elapsed time, up to the two counters' truncation to
        whole jiffies."""
        world = World(ncpus=4, memory=gib(16))
        c = world.containers.create(ContainerSpec("c0"))
        for i in range(2):
            c.spawn_thread(f"w{i}").assign_work(1e9)
        readings = []
        for i in range(1, 16):
            if i == 11:
                world.containers.destroy(c)
            world.run(until=0.1 * i)
            fields = world.host_sysfs.read("/proc/stat").split()
            readings.append((world.now, int(fields[1]), int(fields[4])))
        assert readings[9][1:] == (200, 200)                    # 1.0 s
        assert readings[-1][1:] == (200, 400)                   # 1.5 s
        for (_, busy0, _), (_, busy1, _) in zip(readings, readings[1:]):
            assert busy1 >= busy0
        for now, busy, idle in readings:
            assert abs(busy + idle - 4 * 100 * now) < 2

    def test_proc_self_cgroup(self, world):
        c = world.containers.create(ContainerSpec("c0"))
        proc = c.spawn_process("app")
        line = world.sysfs_registry.read(proc, "/proc/self/cgroup")
        assert line == "0::/docker/c0\n"
        host_line = world.sysfs_registry.read(world.procs.init,
                                              "/proc/self/cgroup")
        assert host_line == "0::/\n"


class TestJvmKill:
    def test_kill_mid_run_releases_resources(self):
        world = World(ncpus=8, memory=gib(16))
        c = world.containers.create(ContainerSpec("c0"))
        wl = JavaWorkload(name="long", app_threads=4, total_work=1000.0,
                          alloc_rate=mib(100), live_set=mib(50),
                          min_heap=mib(60))
        jvm = Jvm(c, wl, JvmConfig.vanilla_jdk8(xms=mib(256), xmx=mib(256)))
        jvm.launch()
        world.run(until=2.0)
        assert not jvm.finished
        jvm.kill("docker kill")
        assert jvm.finished and jvm.stats.oom
        assert jvm.stats.oom_reason == "docker kill"
        assert c.cgroup.memory.usage_in_bytes == 0
        assert c.cgroup.n_runnable() == 0
        # The world keeps running fine afterwards.
        world.run(until=3.0)

    def test_kill_is_idempotent(self):
        world = World(ncpus=4, memory=gib(8))
        c = world.containers.create(ContainerSpec("c0"))
        wl = JavaWorkload(name="w", app_threads=1, total_work=100.0,
                          alloc_rate=0.0, live_set=0)
        jvm = Jvm(c, wl, JvmConfig.vanilla_jdk8(xms=mib(64), xmx=mib(64)))
        jvm.launch()
        jvm.kill()
        jvm.kill()
        assert jvm.stats.oom

    def test_container_destroy_after_kill(self):
        world = World(ncpus=4, memory=gib(8))
        c = world.containers.create(ContainerSpec("c0"))
        wl = JavaWorkload(name="w", app_threads=2, total_work=100.0,
                          alloc_rate=mib(50), live_set=mib(10),
                          min_heap=mib(16))
        jvm = Jvm(c, wl, JvmConfig.vanilla_jdk8(xms=mib(64), xmx=mib(64)))
        jvm.launch()
        world.run(until=1.0)
        jvm.kill()
        world.containers.destroy(c)
        assert world.mm.free == world.mm.available_capacity
