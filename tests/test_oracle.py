"""Monte Carlo estimator: determinism, stream structure, calibration."""

import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (reference_geometric_record_counts, reference_segment_sums,
                     within)
from ruinbounds import (Erlang, Exponential, HyperExponential, PerturbedModel,
                        PreconditionError, RiskModel, _parallel, distributions,
                        exact_ruin_exponential, k_exact_exponential,
                        mc_estimates, oracle)
from ruinbounds.oracle import BLOCK_SIZE

MODEL = RiskModel(0.5, 0.5, Exponential(2.0))
PM = PerturbedModel(MODEL, 0.25)


def first_crossing_overshoot(values, counts, u):
    """Per segment: does the running sum ever exceed u, and by how much at
    the first crossing.  The former block kernel of the deficit estimate,
    kept as the reference for ``oracle._deficit_hits``."""
    nb = len(counts)
    total = len(values)
    cs = np.concatenate(([0.0], np.cumsum(values)))
    ends = np.cumsum(counts)
    starts = ends - counts
    sums = cs[ends] - cs[starts]
    ruined = sums > u
    partial = cs[1:] - np.repeat(cs[starts], counts)
    sentinel = np.where(partial > u, np.arange(total), total)
    first = np.full(nb, total, dtype=np.int64)
    nz = counts > 0
    if np.any(nz):
        first[nz] = np.minimum.reduceat(sentinel, starts[nz])
    overshoot = np.zeros(nb)
    hit = first < total
    overshoot[hit] = partial[first[hit]] - u
    return ruined, overshoot


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = mc_estimates(MODEL, "psi", [1.0], 50_000, seed=123)[0]
        b = mc_estimates(MODEL, "psi", [1.0], 50_000, seed=123)[0]
        assert a == b

    def test_spans_block_boundary(self):
        from ruinbounds.oracle import BLOCK_SIZE
        n = BLOCK_SIZE + 999
        a = mc_estimates(MODEL, "psi", [1.0], n, seed=4)[0]
        b = mc_estimates(MODEL, "psi", [1.0], n, seed=4)[0]
        assert a.estimate == b.estimate
        assert a.n_samples == n

    def test_different_seeds_statistically_close(self):
        a = mc_estimates(MODEL, "psi", [1.0], 100_000, seed=1)[0]
        b = mc_estimates(MODEL, "psi", [1.0], 100_000, seed=2)[0]
        assert a.estimate != b.estimate
        assert abs(a.estimate - b.estimate) <= 6.0 * a.standard_error


class TestAgainstClosedForms:
    def test_psi_at_origin(self):
        est = mc_estimates(MODEL, "psi", [0.0], 100_000, seed=3)[0]
        assert within(est, MODEL.phi, 3.0)

    def test_psi_exponential(self):
        est = mc_estimates(MODEL, "psi", [1.0], 1_000_000, seed=42)[0]
        assert within(est, exact_ruin_exponential(MODEL, 1.0), 3.0)

    def test_k_tail_published_parameters(self):
        est = mc_estimates(PM, "k_tail", [1.0], 1_000_000, seed=42)[0]
        assert within(est, k_exact_exponential(PM, 1.0), 3.0)

    def test_deficit_memoryless(self):
        est = mc_estimates(MODEL, "deficit", [1.0], 300_000, seed=9, y=0.5)[0]
        true = exact_ruin_exponential(MODEL, 1.0) * np.exp(-1.0)
        assert within(est, true, 3.0)

    def test_hyperexp_equilibrium_sampling(self):
        mix = HyperExponential((0.5, 0.5), (1.25, 5.0 / 6.0))
        m = RiskModel(5.0 / 6.0, 3.0, mix)
        est = mc_estimates(m, "psi", [0.0], 200_000, seed=17)[0]
        assert within(est, m.phi, 3.0)


class TestStreamStructure:
    def test_psi_t_dominates_k_tail_pathwise(self):
        # shared stream: adding the trailing oscillation can only add ruin
        for seed in (0, 1, 2, 3, 4):
            a = mc_estimates(PM, "k_tail", [1.0], 50_000, seed=seed)[0]
            b = mc_estimates(PM, "psi_t", [1.0], 50_000, seed=seed)[0]
            assert b.estimate >= a.estimate

    def test_standard_error_formula(self):
        est = mc_estimates(MODEL, "psi", [1.0], 40_000, seed=8)[0]
        expect = np.sqrt(est.estimate * (1.0 - est.estimate) / est.n_samples)
        assert est.standard_error == pytest.approx(expect, rel=1e-12)


class TestCoverage:
    def test_two_se_interval_coverage(self):
        # nominal 95%; ask for >= 90 hits out of 100 independent seeds
        true = exact_ruin_exponential(MODEL, 1.0)
        hits = 0
        for seed in range(100):
            est = mc_estimates(MODEL, "psi", [1.0], 20_000, seed=seed)[0]
            if abs(est.estimate - true) <= 2.0 * est.standard_error:
                hits += 1
        assert hits >= 90


class TestValidation:
    def test_deficit_needs_y(self):
        with pytest.raises(ValueError):
            mc_estimates(MODEL, "deficit", [1.0], 100, seed=0)
        with pytest.raises(ValueError):
            mc_estimates(MODEL, "deficit", [1.0], 100, seed=0, y=float("nan"))

    @pytest.mark.parametrize("y", [-1.0, -1e-300, -math.inf])
    def test_deficit_refuses_a_negative_level(self, y):
        # as deficit_tail_family does; y = -1 used to count ruin alone, psi's count
        with pytest.raises(ValueError, match="y must be >= 0"):
            oracle.estimates(MODEL, "deficit", [0.0, 1.0], 1000, seed=0, y=y)

    def test_classical_quantity_needs_classical_model(self):
        for quantity, extra in (("psi", {}), ("deficit", {"y": 0.5})):
            with pytest.raises(PreconditionError):
                mc_estimates(PM, quantity, [1.0], 100, seed=0, **extra)

    def test_perturbed_quantity_needs_perturbed_model(self):
        with pytest.raises(PreconditionError):
            mc_estimates(MODEL, "k_tail", [1.0], 100, seed=0)

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            mc_estimates(MODEL, "nope", [1.0], 100, seed=0)

    @pytest.mark.parametrize("model, quantity, extra", [
        (MODEL, "psi", {}), (MODEL, "deficit", {"y": 0.5}),
        (PM, "k_tail", {}), (PM, "psi_t", {})])
    def test_rejects_nan_surplus(self, model, quantity, extra):
        with pytest.raises(ValueError, match="surplus"):
            mc_estimates(model, quantity, [float("nan")], 1000, seed=1, **extra)
        with pytest.raises(ValueError, match="surplus"):
            oracle.estimates(model, quantity, [1.0, float("nan")], 1000, seed=1,
                             **extra)

    def test_rejects_empty_surplus_list(self):
        with pytest.raises(ValueError):
            oracle.estimates(MODEL, "psi", [], 1000, seed=1)

    def test_estimate_is_a_python_float(self):
        for quantity, extra in (("psi", {}), ("deficit", {"y": 0.5})):
            est = mc_estimates(MODEL, quantity, [1.0], 1000, seed=1, **extra)[0]
            assert type(est.estimate) is float
            assert type(est.standard_error) is float


class TestManySurpluses:
    US = [0.0, 2.0, 0.5, 1.0, 0.5, 7.0]

    @pytest.mark.parametrize("model, quantity, extra", [
        (RiskModel(0.6, 0.9, HyperExponential((0.3, 0.7), (0.5, 3.0))), "psi", {}),
        (RiskModel(0.6, 0.9, HyperExponential((0.3, 0.7), (0.5, 3.0))), "deficit",
         {"y": 0.4}),
        (PerturbedModel(RiskModel(0.6, 1.2, Erlang(3, 3.0)), 0.3), "k_tail", {}),
        (PerturbedModel(RiskModel(0.6, 1.2, Erlang(3, 3.0)), 0.3), "psi_t", {}),
    ])
    def test_equal_to_one_call_per_u(self, model, quantity, extra):
        n = 2 * BLOCK_SIZE + 17
        together = oracle.estimates(model, quantity, self.US, n, seed=11, **extra)
        apart = [mc_estimates(model, quantity, [u], n, seed=11, **extra)[0]
                 for u in self.US]
        assert together == apart
        assert len({est.seconds for est in together}) == 1

    def test_exceedances_match_a_sorted_count(self):
        # a sorted copy answers "how many exceed u" with searchsorted
        rng = np.random.Generator(np.random.PCG64(3))
        totals = np.round(rng.exponential(1.0, 5000), 2)
        us = np.concatenate([[0.0, 0.5, 100.0], totals[:20]])
        expect = len(totals) - np.searchsorted(np.sort(totals), us, side="right")
        assert np.array_equal(oracle._exceedances(totals, us), expect)


class TestRecordCounts:
    @settings(max_examples=100, deadline=None)
    @given(phi=st.floats(1e-6, 1.0, exclude_max=True),
           size=st.one_of(st.sampled_from([0, 1, 3, BLOCK_SIZE, BLOCK_SIZE + 1]),
                          st.integers(0, 3000)),
           seed=st.integers(0, 2**32 - 1))
    def test_same_counts_and_stream_as_reference(self, phi, size, seed):
        new = np.random.Generator(np.random.PCG64(seed))
        ref = np.random.Generator(np.random.PCG64(seed))
        got = distributions._geometric_record_counts(new, size, phi)
        want = reference_geometric_record_counts(ref, size, phi)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert new.bit_generator.state == ref.bit_generator.state


class TestPathSums:
    @settings(max_examples=300, deadline=None)
    @given(counts=st.lists(st.integers(0, 6), max_size=40), data=st.data())
    def test_same_bits_as_segment_sums(self, counts, data):
        # the running sums gathered once at the path ends, differenced,
        # against the former route through each path's start and end
        counts = np.array(counts, dtype=np.int64)
        total = int(counts.sum())
        values = np.array(data.draw(st.lists(
            st.floats(-1e6, 1e6, allow_subnormal=True),
            min_size=total, max_size=total)), dtype=float)
        ends = np.cumsum(counts)
        got = distributions._path_sums(values, ends)
        want = reference_segment_sums(values, ends, ends - counts)
        assert got.tobytes() == want.tobytes()


# Hit counts of n = 3 BLOCK_SIZE + 999 paths (the last block partial) at
# seed 20240917, u = 1.2 claim means, y = 0.4, theta = 0.5, D = 0.3, as the
# serial block loop drew them.  Any change to a stream, to the order of the
# draws within a block or to a block kernel's arithmetic moves them.
PINNED_N = 3 * BLOCK_SIZE + 999
PINNED_CLAIMS = {"exp": Exponential(2.0),
                 "hyperexp": HyperExponential((0.3, 0.7), (0.5, 3.0)),
                 "erlang3": Erlang(3, 3.0)}
PINNED_HITS = {
    ("exp", "psi"): 88333, ("exp", "deficit"): 39772,
    ("exp", "k_tail"): 119020, ("exp", "psi_t"): 154919,
    ("hyperexp", "psi"): 99559, ("hyperexp", "deficit"): 77948,
    ("hyperexp", "k_tail"): 112003, ("hyperexp", "psi_t"): 125464,
    ("erlang3", "psi"): 74796, ("erlang3", "deficit"): 37456,
    ("erlang3", "k_tail"): 95671, ("erlang3", "psi_t"): 108901,
}


def _pinned_case(claims, quantity):
    law = PINNED_CLAIMS[claims]
    model = RiskModel(0.6, 1.5 * 0.6 * law.mean(), law)
    if quantity in ("k_tail", "psi_t"):
        model = PerturbedModel(model, 0.3)
    kw = {"y": 0.4} if quantity == "deficit" else {}
    return model, 1.2 * law.mean(), kw


class TestPinnedStreams:
    @pytest.mark.parametrize("claims, quantity", sorted(PINNED_HITS))
    def test_hit_counts(self, claims, quantity):
        model, u, kw = _pinned_case(claims, quantity)
        est = mc_estimates(model, quantity, [u], PINNED_N, seed=20240917, **kw)[0]
        assert est.estimate == PINNED_HITS[claims, quantity] / PINNED_N
        assert est.blocks == 4


def _reference_deficit_hits(values, counts, u, y):
    ruined, overshoot = first_crossing_overshoot(values, counts, u)
    return int(np.count_nonzero(ruined & (overshoot > y)))


@st.composite
def _deficit_blocks(draw):
    counts = np.array(draw(st.lists(st.integers(0, 5), min_size=1, max_size=12)),
                      dtype=np.int64)
    # dyadic draws sum exactly, so running sums can equal u or u + y
    draw_value = st.one_of(st.integers(0, 24).map(lambda k: k / 8.0),
                           st.floats(0.0, 3.0))
    total = int(counts.sum())
    values = np.array(draw(st.lists(draw_value, min_size=total, max_size=total)),
                      dtype=float)
    ends = np.cumsum(counts)
    cs = np.concatenate(([0.0], np.cumsum(values)))
    partial = [float(cs[i + 1] - cs[s]) for s, e in zip(ends - counts, ends)
               for i in range(s, e)]
    u = draw(st.one_of(st.just(0.0), st.sampled_from(partial or [0.0]),
                       st.floats(0.0, 6.0)))
    gaps = [s - u for s in partial if s > u]
    y = draw(st.one_of(st.just(0.0), st.sampled_from(gaps or [0.0]),
                       st.floats(0.0, 3.0)))
    return values, counts, u, y


class TestDeficitKernel:
    @settings(max_examples=400, deadline=None)
    @given(_deficit_blocks())
    def test_matches_first_crossing_overshoot(self, case):
        values, counts, u, y = case
        ends = np.cumsum(counts)
        assert (oracle._deficit_hits(values, counts, ends, u, y)
                == _reference_deficit_hits(values, counts, u, y))

    @pytest.mark.parametrize("u, y, hits", [
        (0.0, 0.0, 2),      # every path with a positive draw is ruined
        (1.0, 0.0, 1),      # path 1 reaches exactly u: not ruined
        (1.0, 0.5, 0),      # path 2 first exceeds 1 at 1.5 = u + y exactly
        (1.0, 0.25, 1),
    ])
    def test_boundaries(self, u, y, hits):
        counts = np.array([0, 2, 3, 0])
        values = np.array([0.5, 0.5, 0.25, 1.25, 2.0])
        ends = np.cumsum(counts)
        assert oracle._deficit_hits(values, counts, ends, u, y) == hits
        assert _reference_deficit_hits(values, counts, u, y) == hits


class TestWorkers:
    def _estimates(self, monkeypatch, cpus):
        # the threads each estimate ran blocks on: Thread objects, since
        # CPython hands an exited thread's ident to the next one it starts
        monkeypatch.setattr(_parallel, "cpu_count", lambda: cpus)
        threads = set()
        rng_for_block = oracle._rng_for_block

        def spy(seed, block):
            threads.add(threading.current_thread())
            return rng_for_block(seed, block)

        monkeypatch.setattr(oracle, "_rng_for_block", spy)
        out, used = [], []
        for model, quantity, extra in ((MODEL, "deficit", {"y": 0.5}),
                                       (PM, "psi_t", {})):
            threads.clear()
            out.append(mc_estimates(model, quantity, [1.0], PINNED_N, seed=5,
                                    **extra)[0])
            used.append(len(threads))
        return out, used

    def test_same_bits_on_any_cpu_count(self, monkeypatch):
        serial, used = self._estimates(monkeypatch, 1)
        assert used == [1, 1]
        for cpus in (2, 5):
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                parallel, used = self._estimates(monkeypatch, cpus)
            finally:
                sys.setswitchinterval(switch)
            assert used == [min(cpus, est.blocks) for est in serial]
            assert parallel == serial

    @pytest.mark.parametrize("failing_block", [0, 1, 3])
    def test_block_error_raises_from_estimate(self, monkeypatch, failing_block):
        monkeypatch.setattr(_parallel, "cpu_count", lambda: 2)
        rng_for_block = oracle._rng_for_block
        raised_in = []

        def failing(seed, block):
            if block == failing_block:
                raised_in.append(threading.current_thread())
                raise MemoryError(f"block {block}")
            return rng_for_block(seed, block)

        monkeypatch.setattr(oracle, "_rng_for_block", failing)
        before = threading.active_count()
        with pytest.raises(MemoryError, match=f"block {failing_block}"):
            mc_estimates(MODEL, "psi", [1.0], PINNED_N, seed=5)
        if failing_block < 2:
            # worker w draws block w first; later blocks go to whichever
            # worker is free
            assert (raised_in[0] is threading.main_thread()) == (failing_block == 0)
        assert threading.active_count() == before

    def test_no_block_starts_after_a_failed_one(self, monkeypatch):
        # block 1 fails on the worker thread; block 0 ends only once that
        # thread has exited, so the main thread sees the error before it
        # could take block 2
        monkeypatch.setattr(_parallel, "cpu_count", lambda: 2)
        rng_for_block = oracle._rng_for_block
        started = []
        before = threading.active_count()

        def failing(seed, block):
            started.append(block)
            if block == 0:
                deadline = time.monotonic() + 10.0
                while threading.active_count() > before and time.monotonic() < deadline:
                    time.sleep(1e-3)
            if block == 1:
                raise MemoryError("block 1")
            return rng_for_block(seed, block)

        monkeypatch.setattr(oracle, "_rng_for_block", failing)
        with pytest.raises(MemoryError, match="block 1"):
            mc_estimates(MODEL, "psi", [1.0], 8 * BLOCK_SIZE, seed=5)
        assert sorted(started) == [0, 1]
        assert threading.active_count() == before


class TestObservability:
    def test_blocks_and_seconds(self):
        est = mc_estimates(MODEL, "psi", [1.0], BLOCK_SIZE + 1, seed=3)[0]
        assert est.blocks == 2
        assert est.seconds > 0.0
        assert mc_estimates(MODEL, "psi", [1.0], BLOCK_SIZE, seed=3)[0].blocks == 1
