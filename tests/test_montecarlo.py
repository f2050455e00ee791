import concurrent.futures
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mc_reference import amplitude_matrices, chunk_counts_reference
from mdighz import checks, montecarlo
from mdighz.montecarlo import McConfig, McEstimate, mc_coherent_gains


class TestDeterminism:
    def test_fixed_seed_reproduces(self):
        a = mc_coherent_gains(("HHH",), (0.5, 0.5, 0.5), 0.3, 1e-3,
                              McConfig(samples=50_000, seed=9))
        b = mc_coherent_gains(("HHH",), (0.5, 0.5, 0.5), 0.3, 1e-3,
                              McConfig(samples=50_000, seed=9))
        assert a == b

    def test_chunk_boundary_stitching(self):
        # crossing the fixed chunk size must not disturb the substream layout
        n = montecarlo.CHUNK_SAMPLES + 17
        est, _ = mc_coherent_gains(("HHH",), (0.6, 0.6, 0.6), 0.5, 1e-2,
                                   McConfig(samples=n, seed=5))
        assert est.samples == n

    # The bright point of perfbench/validate_bright.cfg: mu = 0.8, 5 km of
    # 0.2 dB/km fiber at 90% detectors, p_d = 0.01.  The counts were taken
    # from a sampler that propagated complex fields through the 6x6 unitary
    # with the same draws; the real-amplitude identity must reproduce them.
    BRIGHT_ETA = 0.9 * 10 ** (-0.1)

    @pytest.mark.parametrize("pols, slice_k, seed, counts", [
        ("HHH", None, 1, [2774, 2833]), ("HHH", None, 7, [2783, 2745]),
        ("HHV", None, 1, [204, 198]), ("HHV", None, 7, [226, 226]),
        ("VHH", None, 1, [203, 237]), ("VHH", None, 7, [214, 221]),
        ("HVH", None, 1, [229, 227]), ("HVH", None, 7, [213, 206]),
        ("+++", None, 1, [4542, 2564]), ("+++", None, 7, [4473, 2525]),
        ("+++", 8, 1, [8119, 437]), ("+++", 8, 7, [8105, 422]),
    ])
    def test_bright_counts_pinned(self, pols, slice_k, seed, counts):
        ests = mc_coherent_gains((pols,), (0.8, 0.8, 0.8), self.BRIGHT_ETA, 0.01,
                                 McConfig(samples=100_000, seed=seed), slice_k=slice_k)
        assert [e.count for e in ests] == counts

    def test_chunk_stitching_counts_pinned(self):
        ests = mc_coherent_gains(("+++",), (0.8, 0.8, 0.8), self.BRIGHT_ETA, 0.01,
                                 McConfig(samples=montecarlo.CHUNK_SAMPLES + 17, seed=5))
        assert [e.count for e in ests] == [23621, 12789]

    @pytest.mark.parametrize("slice_k", [None, 8])
    def test_one_call_equals_one_call_per_preparation(self, slice_k):
        # a chunk's draws depend only on seed, chunk index, size and slicing,
        # so every preparation of a call sees the same random numbers
        preparations = ("HHH", "HHV", "VHH", "HVH", "+++", "+-+")
        cfg = McConfig(samples=montecarlo.CHUNK_SAMPLES + 17, seed=5)
        shared = mc_coherent_gains(preparations, (0.8, 0.8, 0.8), self.BRIGHT_ETA, 0.01,
                                   cfg, slice_k=slice_k)
        alone = [est for pols in preparations
                 for est in mc_coherent_gains((pols,), (0.8, 0.8, 0.8), self.BRIGHT_ETA,
                                              0.01, cfg, slice_k=slice_k)]
        assert list(shared) == alone and len(shared) == 2 * len(preparations)

    def test_seed_changes_estimates(self):
        a, _ = mc_coherent_gains(("HHH",), (0.6, 0.6, 0.6), 0.5, 1e-2,
                                 McConfig(samples=50_000, seed=1))
        b, _ = mc_coherent_gains(("HHH",), (0.6, 0.6, 0.6), 0.5, 1e-2,
                                 McConfig(samples=50_000, seed=2))
        assert a.count != b.count


BLOCK = montecarlo.BLOCK_SAMPLES
BRIGHT = ((0.8, 0.8, 0.8), TestDeterminism.BRIGHT_ETA, 0.01)
PREPARATIONS = ("HHH", "HHV", "VHH", "HVH", "+++")  # validate's unsliced call
# chunk sizes whose integer (3n) and sliced uniform (3n + ceil(3n/2)) offsets
# each take every position within a four-output Philox counter step
CHUNK_SIZES = (1, 2, 3, 5, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 3 * BLOCK + 17)


class TestStream:
    """The cursors a chunk reads its substream through."""

    @given(seed=st.sampled_from([0, 1, 2 ** 64 - 1]), index=st.integers(0, 3),
           offset=st.integers(0, 40) | st.integers(3 * montecarlo.CHUNK_SAMPLES - 9,
                                                   3 * montecarlo.CHUNK_SAMPLES + 9))
    def test_positioned_at_the_offset_of_the_substream(self, seed, index, offset):
        whole = np.random.Philox(key=seed).jumped(index).random_raw(offset + 8)
        cursor = montecarlo._stream(seed, index, offset)
        assert np.array_equal(cursor.bit_generator.random_raw(8), whole[offset:])

    def test_chunk_sizes_cover_every_position_in_a_counter_step(self):
        assert {3 * n % 4 for n in CHUNK_SIZES} == set(range(4))
        assert {(3 * n + -(-3 * n // 2)) % 4 for n in CHUNK_SIZES} == set(range(4))


class TestStreamedChunk:
    """The block-streamed chunk against the whole-chunk reference."""

    @given(preparations=st.lists(st.text("HV+-", min_size=3, max_size=3),
                                 min_size=1, max_size=6),
           intensities=st.tuples(*[st.sampled_from([0.0, 0.05, 0.4, 0.8, 2.5])] * 3),
           eta=st.sampled_from([0.0, 0.1, 0.72, 1.0]),
           p_d=st.sampled_from([0.0, 1e-7, 0.01, 1.0]),
           slice_k=st.sampled_from([None, 1, 3, 8]),
           seed=st.sampled_from([0, 1, 7, 2 ** 64 - 1]),
           index=st.integers(0, 3),
           n=st.sampled_from(CHUNK_SIZES))
    def test_counts_equal_the_whole_chunk_reference(self, preparations, intensities, eta,
                                                    p_d, slice_k, seed, index, n):
        ws = amplitude_matrices(preparations, intensities, eta)
        streamed = montecarlo._chunk_counts(ws, p_d, slice_k, seed, index, n)
        assert np.array_equal(streamed, chunk_counts_reference(ws, p_d, slice_k, seed,
                                                               index, n))
        assert streamed.shape == (len(preparations), 2)

    @pytest.mark.parametrize("slice_k", [None, 8])
    def test_chunk_memory_does_not_grow_with_the_chunk(self, slice_k):
        # the peak of the memory a chunk allocates, as tracemalloc sees
        # numpy's arrays, for validate's five preparations on one chunk
        ws = amplitude_matrices(PREPARATIONS, *BRIGHT[:2])

        def peak(n):
            tracemalloc.start()
            try:
                montecarlo._chunk_counts(ws, BRIGHT[2], slice_k, 1, 0, n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # the first call imports numpy.random
        mib = 1 << 20
        whole, blocks = peak(montecarlo.CHUNK_SAMPLES), peak(4 * BLOCK)
        assert whole < 2.5 * mib and whole - blocks < 0.5 * mib


def _with_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


class TestPool:
    """Chunks on a thread pool: the counts of the calling thread, bit for bit."""

    @pytest.mark.parametrize("slice_k", [None, 8])
    @pytest.mark.parametrize("chunks", [1, 2, 20])
    def test_counts_independent_of_the_thread_count(self, monkeypatch, slice_k, chunks):
        # small chunks of several blocks, so that 20 of them are cheap
        monkeypatch.setattr(montecarlo, "CHUNK_SAMPLES", 2500)
        monkeypatch.setattr(montecarlo, "BLOCK_SAMPLES", 1000)
        cfg = McConfig(samples=2500 * (chunks - 1) + 17, seed=3)
        runs = {}
        for cpus in (1, 2):
            _with_cpus(monkeypatch, cpus)
            assert montecarlo.chunk_plan(cfg.samples) == (chunks, min(chunks, cpus))
            runs[cpus] = mc_coherent_gains(PREPARATIONS, *BRIGHT, cfg, slice_k)
        # the sum of the reference's chunks, each on its own substream
        ws = amplitude_matrices(PREPARATIONS, *BRIGHT[:2])
        reference = sum(chunk_counts_reference(ws, BRIGHT[2], slice_k, cfg.seed, index,
                                               min(2500, cfg.samples - 2500 * index))
                        for index in range(chunks))
        assert runs[1] == runs[2]
        assert [e.count for e in runs[2]] == reference.ravel().tolist()

    def test_several_chunks_run_on_the_pool(self, monkeypatch):
        built = []

        class Recorded(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, workers):
                built.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
        monkeypatch.setattr(montecarlo, "CHUNK_SAMPLES", 2500)
        _with_cpus(monkeypatch, 2)
        mc_coherent_gains(("HHH",), *BRIGHT, McConfig(samples=3 * 2500, seed=3))
        assert built == [2]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_one_chunk_starts_no_thread(self, monkeypatch, cpus):
        def refused(*args, **kwargs):
            raise AssertionError("a one-chunk call built a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refused)
        _with_cpus(monkeypatch, cpus)
        threads = threading.active_count()
        ests = mc_coherent_gains(("HHH", "+++"), *BRIGHT,
                                 McConfig(samples=montecarlo.CHUNK_SAMPLES, seed=1))
        assert threading.active_count() == threads and len(ests) == 4

    def test_threads_bounded_by_cpus_never_by_samples(self, monkeypatch):
        _with_cpus(monkeypatch, 2)
        chunk = montecarlo.CHUNK_SAMPLES
        assert montecarlo.chunk_plan(1) == (1, 1)
        assert montecarlo.chunk_plan(chunk) == (1, 1)
        assert montecarlo.chunk_plan(chunk + 1) == (2, 2)
        assert montecarlo.chunk_plan(10_000_000) == (20, 2)
        assert montecarlo.chunk_plan(10 ** 15)[1] == 2


class TestStatistics:
    def test_zero_intensity_zero_tallies(self):
        p, m = mc_coherent_gains(("HHH",), (0.0, 0.0, 0.0), 0.5, 0.0,
                                 McConfig(samples=10_000, seed=1))
        assert p.count == 0 and m.count == 0

    def test_stderr_floor_is_one_event(self):
        p, _ = mc_coherent_gains(("HHH",), (0.0, 0.0, 0.0), 0.5, 0.0,
                                 McConfig(samples=10_000, seed=1))
        row = checks._mc_row("A", 5e-9, p)
        assert row.stderr == pytest.approx(1.0 / 10_000)
        assert abs(row.deviation) < 1.0 and row.passed  # sub-resolution reference passes

    def test_root_n_convergence(self):
        base, quad = (checks._mc_row("A", 0.0, mc_coherent_gains(
            ("HHH",), (0.6, 0.6, 0.6), 0.5, 1e-2, McConfig(samples=n, seed=7))[0])
            for n in (100_000, 400_000))
        assert quad.stderr == pytest.approx(base.stderr / 2, rel=0.2)

    def test_row_statistics(self):
        # mean count/n, stderr sqrt(p (1 - p) / n), deviation the z-score
        row = checks._mc_row("B", 0.3, McEstimate(count=2_500, samples=10_000))
        assert row.check == "mc:B" and row.estimate == 0.25
        assert row.stderr == pytest.approx(math.sqrt(0.25 * 0.75 / 10_000), rel=1e-15)
        assert row.deviation == pytest.approx(-0.05 / row.stderr, rel=1e-15)
        assert not row.passed

    def test_bad_polarization_rejected(self):
        with pytest.raises(ValueError):
            mc_coherent_gains(("HHQ",), (0.1, 0.1, 0.1), 0.5, 0.0,
                              McConfig(samples=10, seed=1))

    @pytest.mark.parametrize("preparations", [(), [], "HHH", ("HHH", "HH"), ("HHH", None)])
    def test_bad_preparations_rejected(self, preparations):
        # a bare string is not a sequence of triples, though it iterates as one
        with pytest.raises(ValueError, match="polarization triples"):
            mc_coherent_gains(preparations, (0.1, 0.1, 0.1), 0.5, 0.0,
                              McConfig(samples=10, seed=1))

    @pytest.mark.parametrize("intensities, eta, p_d, slice_k", [
        ((0.1, 0.1), 0.5, 0.0, None),  # two parties only
        ((0.1, 0.1, 0.1, 0.1), 0.5, 0.0, None),
        ((0.1, -0.1, 0.1), 0.5, 0.0, None),
        ((0.1, float("nan"), 0.1), 0.5, 0.0, None),
        ((0.1, float("inf"), 0.1), 0.5, 0.0, None),
        ((0.1, 0.1, 0.1), float("nan"), 0.0, None),
        ((0.1, 0.1, 0.1), 1.5, 0.0, None),
        ((0.1, 0.1, 0.1), -0.1, 0.0, None),
        ((0.1, 0.1, 0.1), 0.5, 1.5, None),
        ((0.1, 0.1, 0.1), 0.5, float("nan"), None),
        ((0.1, 0.1, 0.1), 0.5, 0.0, 0),
        ((0.1, 0.1, 0.1), 0.5, 0.0, -2),
        ((0.1, 0.1, 0.1), 0.5, 0.0, 2.5),
        ((0.1, 0.1, 0.1), 0.5, 0.0, True),  # would run as K = 1
    ])
    def test_bad_inputs_rejected(self, intensities, eta, p_d, slice_k):
        with pytest.raises(ValueError):
            mc_coherent_gains(("HHH",), intensities, eta, p_d,
                              McConfig(samples=10, seed=1), slice_k=slice_k)

    @pytest.mark.parametrize("samples", [0, -5, 2.5, 1e5, True, False])
    def test_bad_sample_count_rejected(self, samples):
        with pytest.raises(ValueError):
            McConfig(samples=samples)

    @pytest.mark.parametrize("seed", [1.5, -1, 2 ** 64, False, True])
    def test_bad_seed_rejected(self, seed):
        # numpy would truncate 1.5 and run the seed-1 stream under the name
        # 1.5, and run False as the seed-0 stream
        with pytest.raises(ValueError, match="seed"):
            McConfig(samples=10, seed=seed)
