"""Golden-trace regression tests.

The kernel fast-path work claims bit-identical behaviour; these tests hold
it to that. The ``short`` digest set (every experiment in
``golden.SHORT_IDS`` — figure9, ext_jitter, the chaos/failover/cluster/
observe campaigns, both sensitivity runners and transport — at 10
simulated seconds, seed 42) is *recomputed on every tier-1 run* and
compared byte-for-byte against the checked-in ``golden_digests.json``. The
``full`` set is too slow for tier-1 — CI verifies it with
``python -m repro.experiments.golden --verify full`` — so here we only
check its shape, and check :func:`golden.verify` itself against a faked
:func:`golden.run_cells`. :func:`golden.run_cells`, the fan-out the
experiment CLI and both digest sets share, is checked on real cells.

If one of these fails after an *intentional* behaviour change, refresh
with::

    PYTHONPATH=src python -m repro.experiments.golden --refresh short
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import REGISTRY, golden
from repro.experiments.report import ExperimentResult

SRC = Path(__file__).resolve().parents[2] / "src"


# -- checked-in digest file shape ------------------------------------------


class TestGoldenFile:
    def test_both_sections_present(self):
        goldens = golden.load_goldens()
        assert set(goldens) >= {"short", "full"}

    def test_short_section_covers_short_ids(self):
        goldens = golden.load_goldens()
        assert set(goldens["short"]["digests"]) == set(golden.SHORT_IDS)
        assert goldens["short"]["seed"] == 42
        assert goldens["short"]["duration_us"] == golden.SHORT_DURATION_US

    def test_full_section_covers_all_golden_ids(self):
        goldens = golden.load_goldens()
        assert set(goldens["full"]["digests"]) == set(golden.GOLDEN_IDS)
        assert goldens["full"]["seed"] == 42

    def test_every_registry_id_is_pinned_at_full_duration(self):
        assert set(golden.GOLDEN_IDS) == set(REGISTRY)

    def test_digests_are_sha256_hex(self):
        goldens = golden.load_goldens()
        for section in ("short", "full"):
            for name, digest in goldens[section]["digests"].items():
                assert len(digest) == 64, name
                int(digest, 16)  # raises on non-hex


# -- the regression proper: recompute the short set --------------------------


@pytest.mark.parametrize("name", golden.SHORT_IDS)
def test_short_digest_is_byte_identical(name):
    """Recompute one short-set experiment and compare to the pinned digest.

    ``out_dir=None`` matches how the digests were captured: the digest
    covers the result object, never exporter side effects.
    """
    goldens = golden.load_goldens()
    want = goldens["short"]["digests"][name]
    got = golden.result_digest(
        golden.compute_result(
            name, seed=42, duration_us=golden.SHORT_DURATION_US, out_dir=None
        )
    )
    assert got == want, (
        f"{name} drifted from its golden digest — simulated behaviour "
        "changed. If intentional, refresh with "
        "`python -m repro.experiments.golden --refresh short`."
    )


def test_compute_digest_is_deterministic():
    """Two in-process runs of the same experiment produce the same digest."""
    kwargs = dict(seed=42, duration_us=golden.SHORT_DURATION_US, out_dir=None)
    assert golden.result_digest(
        golden.compute_result("figure9", **kwargs)
    ) == golden.result_digest(golden.compute_result("figure9", **kwargs))


def test_row_values_are_plain_floats():
    """The repr-based digest relies on this: a numpy scalar would repr as
    np.float64(x) and silently fork the digest of an equal result."""
    r = golden.compute_result("sens_costs", seed=42)
    for row in r.rows:
        assert type(row.measured) is float, row.label


# -- run_cells: the one fan-out over registry cells --------------------------


class TestRunCells:
    """Real cells of ``sens_costs``, the cheapest experiment. Its title
    names the ``scale`` it ran at, so each result shows which cell it is;
    the third cell raises (an unknown config key)."""

    CELLS = [
        ("sens_costs", 42, None, {"scale": 2.0}),
        ("sens_costs", 42, None, {"scale": 1.25}),
        ("sens_costs", 42, None, {"bogus": 1}),
    ]

    @pytest.fixture(scope="class")
    def pooled(self):
        return golden.run_cells(self.CELLS, workers=2)

    @staticmethod
    def digests(outcomes):
        return [
            (golden.result_digest(result) if result else None, error)
            for result, error, _ in outcomes
        ]

    def test_outcomes_in_input_order(self, pooled):
        assert "x2.0" in pooled[0][0].title
        assert "x1.25" in pooled[1][0].title
        assert pooled[2][0] is None

    def test_worker_digest_matches_in_process_digest(self, pooled):
        for (name, seed, duration_us, config), (result, error, _) in zip(
            self.CELLS[:2], pooled
        ):
            assert error is None
            assert golden.result_digest(result) == golden.result_digest(
                golden.compute_result(name, seed, duration_us, **config)
            )

    def test_one_and_two_workers_agree(self, pooled):
        serial = golden.run_cells(self.CELLS, workers=1)
        assert self.digests(serial) == self.digests(pooled)

    def test_raising_cell_reports_its_error(self, pooled):
        result, error, compute_s = pooled[2]
        assert result is None
        assert error.startswith(
            "ValueError: unknown config key(s) 'bogus' for experiment 'sens_costs'"
        )
        assert compute_s >= 0.0


class TestComputeResult:
    def test_unknown_config_key_is_rejected(self):
        with pytest.raises(ValueError) as exc:
            golden.compute_result("sens_costs", bogus=1)
        assert "unknown config key(s) 'bogus'" in str(exc.value)
        assert "accepted parameters: scale, seed" in str(exc.value)

    def test_known_config_key_and_out_dir_are_accepted(self):
        # sens_costs writes no artifacts: out_dir is dropped, not an error
        result = golden.compute_result("sens_costs", scale=2.0, out_dir=None)
        assert "x2.0" in result.title


# -- verify: the full-set gate, against a faked run_cells --------------------


class TestVerify:
    @pytest.fixture
    def pin(self, monkeypatch):
        """Pin a fake short section over ids a, b, c. The fake
        ``run_cells`` names each cell's seed in its result, so a
        recomputation at any seed but 42 drifts every id."""

        def fake_run_cells(cells, workers):
            return [
                (ExperimentResult(name, f"seed {seed}"), None, 0.0)
                for name, seed, _, _ in cells
            ]

        def install(digests):
            section = {"seed": 42, "duration_us": 1.0, "digests": digests}
            monkeypatch.setattr(golden, "load_goldens", lambda: {"short": section})
            monkeypatch.setattr(golden, "SHORT_IDS", ("a", "b", "c"))
            monkeypatch.setattr(golden, "run_cells", fake_run_cells)

        return install

    @staticmethod
    def at_42(name):
        return golden.result_digest(ExperimentResult(name, "seed 42"))

    def test_returns_exactly_the_drifted_ids(self, pin):
        pin({"a": self.at_42("a"), "b": "stale", "c": self.at_42("c")})
        assert golden.verify("short", verbose=False) == ["b"]

    def test_unpinned_id_is_a_mismatch(self, pin):
        pin({"a": self.at_42("a"), "b": self.at_42("b")})
        assert golden.verify("short", verbose=False) == ["c"]


def test_cli_rejects_seed_with_verify():
    """Both sets are pinned at seed 42 and the CLI has no ``--seed``, so
    one is refused up front rather than reported as drift."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments.golden",
         "--verify", "short", "--seed", "7"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "--seed" in proc.stderr
