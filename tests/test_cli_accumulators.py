"""CLI and accumulator tests."""


import pytest

from repro.cli import main
from repro.core.converters.base import AllocationStats
from repro.engine import Accumulator, EngineContext, counter
from repro.stio import StDataset

BACKENDS = ["sequential", "thread", "process"]


def _ctx(backend: str) -> EngineContext:
    options = {"warmup": False, "max_workers": 2} if backend == "process" else None
    return EngineContext(default_parallelism=4, backend=backend, backend_options=options)


class TestAccumulators:
    def test_counter(self):
        acc = counter("records")
        acc.add(3)
        acc.add(4)
        assert acc.value == 7
        acc.reset()
        assert acc.value == 0

    def test_custom_combine(self):
        acc = Accumulator(set(), combine=lambda a, b: a | b)
        acc.add({1})
        acc.add({2, 3})
        assert acc.value == {1, 2, 3}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_used_inside_tasks(self, backend):
        ctx = _ctx(backend)
        seen = counter()

        def track(x):
            seen.add(1)
            return x

        try:
            ctx.parallelize(range(100), 8).map(track).count()
        finally:
            ctx.stop()
        assert seen.value == 100

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_only_the_winning_attempt_counts(self, backend, tmp_path):
        # Every task adds, then raises on its first attempt: the failed
        # attempt's adds are dropped, the retry's count once.
        ctx = _ctx(backend)
        seen, stats = counter(), AllocationStats()

        def flaky(x):
            seen.add(1)
            stats.add(1, 2, 3, 4)
            marker = tmp_path / f"attempted-{x}"
            if not marker.exists():
                marker.touch()
                raise RuntimeError("first attempt")
            return x

        try:
            assert ctx.parallelize(range(8), 8).map(flaky).count() == 8
        finally:
            ctx.stop()
        assert seen.value == 8
        assert stats.snapshot() == {
            "instances": 8, "candidate_tests": 16, "exact_tests": 24, "allocations": 32,
        }

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nested_stage_adds_count_once(self, backend):
        # The shuffle's map side runs as a nested inline stage inside the
        # reduce side's first task on sequential/thread (driver-side before
        # dispatch on process); its adds ride the enclosing attempt.
        ctx = _ctx(backend)
        seen = counter()

        def track(x):
            seen.add(1)
            return (x % 3, 1)

        try:
            pairs = ctx.parallelize(range(60), 6).map(track).reduce_by_key(lambda a, b: a + b)
            assert sorted(pairs.collect()) == [(0, 20), (1, 20), (2, 20)]
        finally:
            ctx.stop()
        assert seen.value == 60

    def test_sink_made_inside_a_task_adds_in_place(self):
        ctx = EngineContext(default_parallelism=2)

        def local_total(items):
            acc = counter()
            for x in items:
                acc.add(x)
            return [acc.value]

        assert sum(ctx.parallelize(range(10), 2).map_partitions(local_total).collect()) == 45

    def test_repr(self):
        acc = counter("hits")
        acc.add(2)
        assert "hits" in repr(acc)
        assert "2" in repr(acc)


class TestCli:
    def test_generate_and_info(self, tmp_path, capsys):
        out = tmp_path / "nyc"
        assert main(["generate", "nyc", "--records", "500", "--out", str(out)]) == 0
        assert StDataset(out).metadata().total_records == 500
        assert main(["info", str(out)]) == 0
        captured = capsys.readouterr().out
        lines = captured.splitlines()
        assert any(l.startswith("records") and l.endswith("500") for l in lines)
        assert any(l.startswith("instance type") and l.endswith("event") for l in lines)

    def test_select_with_pruning(self, tmp_path, capsys):
        out = tmp_path / "nyc"
        main(["generate", "nyc", "--records", "800", "--out", str(out), "--seed", "3"])
        code = main(
            [
                "select", str(out),
                "--bbox", "-74.0", "40.7", "-73.95", "40.75",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "selected" in captured
        assert "partitions read:" in captured

    def test_select_without_query_errors(self, tmp_path):
        out = tmp_path / "nyc"
        main(["generate", "nyc", "--records", "100", "--out", str(out)])
        assert main(["select", str(out)]) == 2

    def test_full_scan_flag(self, tmp_path, capsys):
        out = tmp_path / "nyc"
        main(["generate", "nyc", "--records", "400", "--out", str(out)])
        main(
            [
                "select", str(out), "--full-scan",
                "--bbox", "-74.0", "40.7", "-73.99", "40.71",
            ]
        )
        captured = capsys.readouterr().out
        # Full scan reads every partition.
        lines = [ln for ln in captured.splitlines() if "partitions read" in ln]
        read, total = lines[-1].split()[2].split("/")
        assert read == total

    def test_reindex(self, tmp_path, capsys):
        out = tmp_path / "porto"
        main(["generate", "porto", "--records", "100", "--out", str(out), "--no-indexed"])
        assert main(["index", str(out), "--gt", "2", "--gs", "2"]) == 0
        assert "re-indexed" in capsys.readouterr().out
        assert StDataset(out).metadata().total_records == 100

    def test_generate_all_kinds(self, tmp_path):
        for name in ("porto", "air", "osm"):
            out = tmp_path / name
            assert main(["generate", name, "--records", "200", "--out", str(out)]) == 0
            assert StDataset(out).metadata().total_records > 0
