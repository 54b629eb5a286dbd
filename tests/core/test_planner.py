"""Local-store planning: the Figure 3 layouts."""

import pytest

from repro.cell.local_store import LocalStore
from repro.core.planner import (
    CODE_STACK_BYTES,
    FIGURE3_CASES,
    PlanError,
    plan_tile,
)


class TestFigure3:
    """The paper's three cases: buffers 2×16k/2×8k/2×4k give STTs of
    190/206/214 KB and 1520/1648/1712 states."""

    @pytest.mark.parametrize("case,buffer_kb,stt_kb,states", [
        (0, 16, 190, 1520),
        (1, 8, 206, 1648),
        (2, 4, 214, 1712),
    ])
    def test_paper_numbers_exact(self, case, buffer_kb, stt_kb, states):
        plan = FIGURE3_CASES[case]
        assert plan.buffer_bytes == buffer_kb * 1024
        assert plan.stt_capacity == stt_kb * 1024
        assert plan.max_states == states

    def test_code_stack_is_34k(self):
        assert CODE_STACK_BYTES == 34 * 1024
        for plan in FIGURE3_CASES:
            assert plan.code_stack_bytes == CODE_STACK_BYTES


class TestPlanTile:
    def test_everything_fits_256k(self):
        plan = plan_tile()
        total = plan.code_stack_bytes + plan.stt_capacity \
            + plan.num_buffers * plan.buffer_bytes
        assert total <= 256 * 1024

    def test_stt_base_aligned_to_stride(self):
        for width in (16, 32, 64, 128, 256):
            plan = plan_tile(alphabet_size=width)
            assert plan.stt_base % plan.stride == 0

    def test_wider_alphabet_fewer_states(self):
        narrow = plan_tile(alphabet_size=32)
        wide = plan_tile(alphabet_size=256)
        assert wide.max_states < narrow.max_states
        # 8x wider rows -> roughly 8x fewer states.
        assert narrow.max_states / wide.max_states == pytest.approx(8, rel=0.1)

    def test_counters_inside_code_stack(self):
        plan = plan_tile()
        assert plan.counters_base + 256 <= plan.code_stack_bytes

    def test_apply_reserves_regions(self):
        plan = plan_tile(buffer_bytes=4096)
        ls = LocalStore()
        plan.apply(ls)
        assert ls.region("stt").start == plan.stt_base
        assert ls.region("buffer0").start == plan.buffer_bases[0]
        assert ls.region("buffer1").start == plan.buffer_bases[1]

    def test_describe_mentions_states(self):
        text = plan_tile().describe()
        assert "1520" in text

    def test_errors(self):
        with pytest.raises(PlanError):
            plan_tile(buffer_bytes=0)
        with pytest.raises(PlanError):
            plan_tile(buffer_bytes=100)     # not multiple of 16
        with pytest.raises(PlanError):
            plan_tile(num_buffers=0)
        with pytest.raises(PlanError):
            plan_tile(buffer_bytes=128 * 1024)  # 2x128k leaves no STT room
        with pytest.raises(PlanError):
            plan_tile(code_stack_bytes=16)

    def test_single_buffer_mode(self):
        plan = plan_tile(buffer_bytes=16 * 1024, num_buffers=1)
        assert len(plan.buffer_bases) == 1
        assert plan.max_states > FIGURE3_CASES[0].max_states


class TestPrefilterCostRule:
    """The packed prefilter is mounted only where the predicted screen
    plus verify cost undercuts the bare kernel."""

    BLOCK = bytes(16_000_000)

    @staticmethod
    def _plan(compiled, **kwargs):
        from repro.core.backends import ScanContext, ScanRequest, _plan

        request = ScanRequest(data=kwargs.pop("data",
                                              TestPrefilterCostRule.BLOCK),
                              **kwargs)
        with ScanContext(compiled) as ctx:
            return _plan(ctx, request, None)

    def test_block_dictionary_plans_bare_kernel_without_building_mask(self):
        from repro.core.compiled import compile_dictionary
        from repro.dfa.alphabet import identity_fold
        from repro.workloads import random_signatures

        compiled = compile_dictionary(random_signatures(25, 4, 10, seed=90),
                                      fold=identity_fold(32))
        plan = self._plan(compiled)
        assert plan.backend == "hotcold2"
        assert plan.prefilter is False
        # Stride 2 rules the screen out before its mask is built.
        assert compiled._prefilter_built is False

    def test_long_signature_dictionary_plans_prefilter(self):
        from repro.core.compiled import compile_dictionary
        from repro.dfa.alphabet import identity_fold
        from repro.workloads import random_signatures

        # bench_fused.PF_PATTERNS: 12-16 byte signatures, stride 10.
        compiled = compile_dictionary(
            random_signatures(32, 12, 16, seed=117), fold=identity_fold(32))
        plan = self._plan(compiled)
        assert plan.prefilter is True
        assert "prefilter" in plan.describe()

    def test_regex_dictionary_plans_no_prefilter(self):
        from repro.core.compiled import compile_dictionary

        compiled = compile_dictionary(["vi.us", "w[o0]rm"], regex=True)
        assert compiled.screen_shape() is None
        assert self._plan(compiled).prefilter is False

    def test_explicit_prefilter_true_still_mounts(self):
        from repro.core.compiled import compile_dictionary
        from repro.dfa.alphabet import identity_fold
        from repro.workloads import random_signatures

        compiled = compile_dictionary(random_signatures(25, 4, 10, seed=90),
                                      fold=identity_fold(32))
        assert self._plan(compiled, prefilter=True).prefilter is True
        assert self._plan(compiled, prefilter=False).prefilter is False

    def test_small_blocks_never_auto_mount(self):
        from repro.core.compiled import compile_dictionary
        from repro.dfa.alphabet import identity_fold
        from repro.workloads import random_signatures

        compiled = compile_dictionary(
            random_signatures(32, 12, 16, seed=117), fold=identity_fold(32))
        assert self._plan(compiled, data=bytes(4096)).prefilter is False

    def test_stride_is_checked_before_selectivity(self):
        from repro.core.planner import ScreenShape, plan_backend

        def unbuildable():
            raise AssertionError("mask built for a losing stride")

        plan = plan_backend(nbytes=16_000_000, num_slices=1, exact=True,
                            pair_fit=True, two_byte=True,
                            screen=ScreenShape(2, 8, unbuildable))
        assert plan.backend == "hotcold2" and plan.prefilter is False

    def test_selectivity_prices_the_verify(self):
        from repro.core.planner import ScreenShape, plan_backend

        def plan(selectivity):
            return plan_backend(nbytes=16_000_000, num_slices=1, exact=True,
                                hot_cold=True,
                                screen=ScreenShape(10, 16,
                                                   lambda: selectivity))

        assert plan(0.001).prefilter is True
        # A mask admitting most trigrams makes nearly every byte a
        # candidate: verifying costs more than the bare scan.
        assert plan(0.9).prefilter is False

    def test_cost_helpers(self):
        from repro.core.planner import (SCREEN_GATHER_COST,
                                        SCREEN_GATHERS_PER_SAMPLE,
                                        WINDOW_COST, expected_candidates,
                                        gathers_per_byte, screen_cost,
                                        verify_cost)

        assert gathers_per_byte("hotcold2") == 0.5
        assert gathers_per_byte("hotcold2", pair_fit=False) > 1.0
        assert gathers_per_byte("hotcold") == 1.0
        assert gathers_per_byte("fused", 4) == 4.0
        assert gathers_per_byte("flat", 3) == 3.0
        assert screen_cost(1000, 10) == pytest.approx(
            100 * SCREEN_GATHERS_PER_SAMPLE * SCREEN_GATHER_COST)
        assert verify_cost(100, 2, 0.5) == pytest.approx(50 + 2 * WINDOW_COST)
        cand, windows = expected_candidates(10_000, 4, 8, 0.0)
        assert cand == 0 and windows == 0
        cand, windows = expected_candidates(10_000, 4, 8, 1.0)
        assert 0.9 * 10_000 < cand <= 10_000
