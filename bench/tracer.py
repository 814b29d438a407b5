"""Span recorder that wraps frobranch's public functions from outside.

`Tracer.install()` replaces each name in `WRAPPED` with a wrapper that
records a span (name, start, end, parent, request) in memory.  A name is
patched wherever it is looked up: on its class for methods, and in every
loaded frobranch module that holds the same function object for plain
functions (from-imports such as `cli.crosscheck` or `graded.kernel_for`
would otherwise never fire).  A name that no longer exists is reported as
absent instead of failing, so refactors inside the program do not break
the benchmark.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because requests run on one thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from time import perf_counter

# (module, qualified name, layer metric that receives its self time).
# Method names carry their class: "Echelon.add_row".
WRAPPED = [
    ("frobranch.linalg", "Echelon.add_row", "linalg.add_row_s"),
    ("frobranch.linalg", "Echelon.reduce", "linalg.reduce_s"),
    ("frobranch.linalg", "Echelon.contains", "linalg.reduce_s"),
    ("frobranch.linalg", "kernel_for", "linalg.kernel_build_s"),
    ("frobranch.ffield", "extend_field", "ffield.extend_field_s"),
    ("frobranch.ffield", "squarefree_decomposition", "ffield.sqf_s"),
    ("frobranch.ffield", "distinct_root_count", "ffield.sqf_s"),
    ("frobranch.graded", "GradedQuotient.slice", "graded.slice_s"),
    ("frobranch.graded", "multiplicity", "graded.multiplicity_s"),
    ("frobranch.graded", "hilbert_function", "graded.multiplicity_s"),
    ("frobranch.graded", "find_linear_reduction", "graded.reduction_search_s"),
    ("frobranch.graded", "is_linear_reduction", "graded.reduction_search_s"),
    ("frobranch.graded", "base_change", "graded.reduction_search_s"),
    ("frobranch.graded", "branch_count", "graded.closure_s"),
    ("frobranch.graded", "closure_quotient_dim", "graded.closure_s"),
    ("frobranch.graded", "frobenius_closure_membership", "graded.closure_s"),
    ("frobranch.oracle", "crosscheck", "oracle.self_s"),
    ("frobranch.oracle", "oracle_branch_count", "oracle.self_s"),
    ("frobranch.oracle", "hypersurface_branches", "oracle.self_s"),
    ("frobranch.semigroup", "smith_normal_form", "semigroup.lattice_s"),
    ("frobranch.semigroup", "solve_integer", "semigroup.lattice_s"),
    ("frobranch.semigroup", "AffineSemigroup.in_lattice", "semigroup.lattice_s"),
    ("frobranch.semigroup", "cone_geometry", "semigroup.cone_s"),
    ("frobranch.semigroup", "AffineSemigroup.in_cone", "semigroup.cone_s"),
    ("frobranch.semigroup", "saturation_hilbert_basis", "semigroup.saturation_s"),
    ("frobranch.semigroup", "membership", "semigroup.membership_s"),
    ("frobranch.semigroup", "eventual_p_membership", "semigroup.p_membership_s"),
    ("frobranch.semigroup", "is_f_nilpotent", "semigroup.p_membership_s"),
    ("frobranch.semigroup", "pure_insep_index", "semigroup.p_membership_s"),
    ("frobranch.semigroup", "fte_bruteforce", "semigroup.fte_s"),
    ("frobranch.semigroup", "frobenius_closure_exponent", "semigroup.fte_s"),
    ("frobranch.semigroup", "tight_closure_membership_monomial", "semigroup.fte_s"),
    ("frobranch.parse", "parse_homog", "parse.self_s"),
    ("frobranch.parse", "parse_semigroup", "parse.self_s"),
    ("frobranch.parse", "parse_vector_list", "parse.self_s"),
    ("frobranch.parse", "parse_unipoly", "parse.self_s"),
    ("frobranch.cli", "parse_request", "cli.self_s"),
    ("frobranch.cli", "run", "cli.self_s"),
    ("frobranch.cli", "render", "cli.self_s"),
]

# metric -> wrapped names whose calls it counts
CALL_COUNTS = {
    "linalg.add_row_calls": ["Echelon.add_row"],
    "linalg.reduce_calls": ["Echelon.reduce", "Echelon.contains"],
    "graded.reduction_candidates": ["is_linear_reduction"],
    "graded.base_changes": ["base_change"],
    "ffield.sqf_calls": ["squarefree_decomposition"],
    "semigroup.snf_calls": ["smith_normal_form"],
    "semigroup.membership_calls": ["membership"],
}

# Names each workload's CLI path must reach; a zero call count on one of
# them means a wrapper was bypassed (or the program stopped calling it).
# Echelon.contains, frobenius_closure_membership and parse_unipoly are on
# no CLI path today, so no workload expects them.
_BRANCHES_PATH = [
    "parse_request", "run", "render", "parse_homog", "kernel_for",
    "GradedQuotient.slice", "Echelon.add_row", "Echelon.reduce",
    "multiplicity", "hilbert_function", "find_linear_reduction",
    "is_linear_reduction", "branch_count", "closure_quotient_dim",
    "crosscheck", "oracle_branch_count", "hypersurface_branches",
    "squarefree_decomposition", "distinct_root_count",
]
EXPECTED = {
    "curves": _BRANCHES_PATH,
    "extension": _BRANCHES_PATH + ["extend_field", "base_change"],
    "semigroups": [
        "parse_request", "run", "render", "parse_semigroup", "parse_vector_list",
        "smith_normal_form", "solve_integer", "AffineSemigroup.in_lattice",
        "cone_geometry", "AffineSemigroup.in_cone", "saturation_hilbert_basis",
        "membership", "eventual_p_membership", "is_f_nilpotent", "pure_insep_index",
        "fte_bruteforce", "frobenius_closure_exponent",
        "tight_closure_membership_monomial",
    ],
}


def _echelon_cells(args) -> int:
    """rank * ncols of the echelon form a new row is reduced against."""
    echelon = args[0]
    return getattr(echelon, "rank", 0) * getattr(echelon, "ncols", 0)


class Tracer:
    def __init__(self):
        self.spans: list = []       # [name, start, end, parent index, request]
        self.request = -1
        self.absent: list = []
        self._stack: list = []
        # counters read at the wrapped call sites
        self.rank_gains = 0
        self.cells_touched = 0      # sum of rank * ncols before each add_row
        self._slices: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.slices_built = 0       # distinct (ring, degree) pairs
        self.slice_cols_max = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, qualname, _ in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(qualname)
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(qualname, original)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "frobranch" or mod_name.startswith("frobranch.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name: str, original):
        spans = self.spans
        stack = self._stack
        before = {"Echelon.add_row": _echelon_cells}.get(name)
        after = {
            "Echelon.add_row": self._after_add_row,
            "GradedQuotient.slice": self._after_slice,
        }.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            state = before(args) if before else None
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after:
                after(args, result, state)
            return result

        return wrapper

    def _after_add_row(self, args, result, cells):
        self.cells_touched += cells
        self.rank_gains += bool(result)

    def _after_slice(self, args, result, _):
        ring, degree = args[0], args[1]
        seen = self._slices.setdefault(ring, set())
        if degree not in seen:
            seen.add(degree)
            self.slices_built += 1
        self.slice_cols_max = max(self.slice_cols_max, len(getattr(result, "columns", ())))

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, float]:
        """Per-name self seconds, per-name call counts, and total self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = {}
        calls: dict = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls, sum(self_s.values())

    def layer_metrics(self) -> dict:
        """Per-layer numbers for one traced pass (without the trace.* pair,
        which needs the untraced pass too)."""
        self_s, calls, total_self = self.self_times()
        out = {metric: 0.0 for _, _, metric in WRAPPED}
        for _, qualname, metric in WRAPPED:
            out[metric] += self_s.get(qualname, 0.0)
        for metric, names in CALL_COUNTS.items():
            out[metric] = sum(calls.get(n, 0) for n in names)
        add_rows = calls.get("Echelon.add_row", 0)
        out["linalg.rank_gain_ratio"] = self.rank_gains / add_rows if add_rows else 0.0
        out["linalg.cells_touched"] = self.cells_touched
        out["graded.slices_built"] = self.slices_built
        out["graded.slice_cols_max"] = self.slice_cols_max
        out["_calls"] = calls
        out["_self_total"] = total_self
        return out

    def coverage_gaps(self, workload: str, calls: dict) -> list:
        """Expected names that never fired (absent names are listed apart)."""
        return [n for n in EXPECTED[workload] if n not in self.absent and not calls.get(n)]
