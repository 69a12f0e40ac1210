"""Span recorder for the traced run, attached from outside the program.

The benchmark does not change azsperner: it wraps the public functions of
each module (plus the cached closure and chain-count properties of
RankedPoset, and sperner._strict_pairs for a counter) and rebinds every name
that another azsperner module imported, so a call made from anywhere in the
package is seen.  Each span records its name, start, end,
parent and phase ("setup" or "op"); a layer's self time is its span minus its
direct child spans.  Counters are kept at the same boundaries.

Per-layer metrics are "cost per setup plus cost per verdict": the setup-phase
total divided by the number of setups, plus the op-phase total divided by the
number of verdicts.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (span name, metric unit) for every per-layer metric reported by a traced run.
LAYER_METRICS = [
    ("families.gen_ms", "ms"),
    ("core.closure_ms", "ms"),
    ("core.closure_bytes", "bytes"),
    ("core.chain_dp_ms", "ms"),
    ("core.chain_enum_ms", "ms"),
    ("core.chains_enumerated", "count"),
    ("az.thm1_ms", "ms"),
    ("az.keylemma_ms", "ms"),
    ("az.cor2_ms", "ms"),
    ("az.thm5_ms", "ms"),
    ("az.terms", "count"),
    ("az.upset_elements", "count"),
    ("properties.regular_ms", "ms"),
    ("properties.lambda_ms", "ms"),
    ("properties.normal_ms", "ms"),
    ("properties.covering_ms", "ms"),
    ("properties.verify_covering_ms", "ms"),
    ("properties.strictly_normal_ms", "ms"),
    ("flows.maxflow_calls", "count"),
    ("flows.maxflow_ms", "ms"),
    ("flows.maxflow_arcs", "count"),
    ("flows.matching_ms", "ms"),
    ("flows.antichain_enum_ms", "ms"),
    ("sperner.strict_pairs", "count"),
    ("sperner.kbb_ms", "ms"),
    ("sperner.families_found", "count"),
    ("twopart.conflict_graph_ms", "ms"),
    ("twopart.conflict_edges", "count"),
    ("mis.search_ms", "ms"),
    ("mis.solutions", "count"),
    ("cli.import_ms", "ms"),
    ("cli.import_networkx_ms", "ms"),
    ("acceptance.criteria_ms", "ms"),
]


class Tracer:
    """Spans and counters kept in memory, tagged with the current phase."""

    def __init__(self):
        self.phase = "setup"
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.phase])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[(self.phase, name)] += value

    def wrap(self, fn, span: str | None, counter=None):
        """A wrapper that records `span` around fn and then feeds `counter`."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                idx = tracer.open(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": [[phase, name, value] for (phase, name), value in self.counters.items()],
        }


def self_times(spans: list[list]) -> list[float]:
    """Seconds of each span not covered by its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(dumps: list[dict], setups: int, verdicts: int) -> dict[str, dict]:
    """Aggregate span dumps into the per-layer metrics (per setup + per verdict)."""
    totals: dict[tuple[str, str], float] = defaultdict(float)
    for dump in dumps:
        spans = dump["spans"]
        for span, own in zip(spans, self_times(spans)):
            totals[(span[4], span[0] + "_ms")] += 1000.0 * own
        for phase, name, value in dump["counters"]:
            totals[(phase, name)] += value
    out = {}
    for name, unit in LAYER_METRICS:
        value = totals[("setup", name)] / max(setups, 1) + totals[("op", name)] / max(verdicts, 1)
        out[name] = {"value": value, "unit": unit}
    return out


# -- counters -------------------------------------------------------------------


def _closure_bytes(tracer, args, kwargs, result):
    tracer.count("core.closure_bytes", sum(sys.getsizeof(m) for m in result))


def _chains(tracer, args, kwargs, result):
    tracer.count("core.chains_enumerated", len(result))


def _upset_size(poset, fam) -> int:
    return poset.upset_mask(fam).bit_count()


def _az_thm1(tracer, args, kwargs, result):
    tracer.count("az.terms", len(result.terms))
    tracer.count("az.upset_elements", sum(1 for t in result.terms if t.in_upset))


def _az_keylemma(tracer, args, kwargs, result):
    poset, fam = args[0], args[1]
    tracer.count("az.terms", poset.n)
    tracer.count("az.upset_elements", _upset_size(poset, fam))


def _az_thm5(tracer, args, kwargs, result):
    poset, system = args[0], args[1]
    a_fam = [a for a, _ in system.pairs]
    b_fam = [b for _, b in system.pairs]
    region = poset.upset_mask(a_fam)
    below = 0
    for b in b_fam:
        below |= poset.down_mask[b]
    tracer.count("az.terms", (region & ~below).bit_count() + len(system.pairs))
    tracer.count("az.upset_elements", region.bit_count())


def _maxflow(tracer, args, kwargs, result):
    rows, cols, edges = args[0], args[1], args[2]
    tracer.count("flows.maxflow_calls", 1)
    tracer.count("flows.maxflow_arcs", len(rows) + len(cols) + len(edges))


def _strict_pairs(tracer, args, kwargs, result):
    tracer.count("sperner.strict_pairs", len(result))


def _families_found(tracer, args, kwargs, result):
    tracer.count("sperner.families_found", len(result[1]))


def _conflict_edges(tracer, args, kwargs, result):
    tracer.count("twopart.conflict_edges", sum(m.bit_count() for m in result[1]) // 2)


def _mis_solutions(tracer, args, kwargs, result):
    tracer.count("mis.solutions", len(result[1]))


# module -> [(function name, span name or None for counter-only, counter)]
FUNCTIONS = {
    "azsperner.families": [
        (name, "families.gen", None)
        for name in (
            "gen_boolean",
            "gen_star_power",
            "gen_chain_product",
            "gen_divisor_lattice",
            "gen_subspace_lattice",
            "gen_affine_poset",
            "gen_fig1a",
            "gen_fig1b",
            "truncate",
            "product",
            "parse_poset_spec",
        )
    ],
    "azsperner.az": [
        ("az_identity_sum", "az.thm1", _az_thm1),
        ("key_lemma_sum", "az.keylemma", _az_keylemma),
        ("antichain_az", "az.cor2", None),
        ("second_az_identity", "az.thm5", _az_thm5),
    ],
    "azsperner.properties": [
        ("check_regular", "properties.regular", None),
        ("check_strongly_regular", "properties.lambda", None),
        ("lambda_table", "properties.lambda", None),
        ("check_normal", "properties.normal", None),
        ("build_chain_covering", "properties.covering", None),
        ("verify_chain_covering", "properties.verify_covering", None),
        ("check_strictly_normal", "properties.strictly_normal", None),
    ],
    "azsperner.flows": [
        ("transportation", "flows.maxflow", _maxflow),
        ("matching_min_cut_side", "flows.maxflow", _maxflow),
        ("maximum_antichain_ids", "flows.matching", None),
        ("minimum_chain_cover", "flows.matching", None),
        ("enumerate_maximum_antichain_ids", "flows.antichain_enum", None),
    ],
    "azsperner.sperner": [
        ("_strict_pairs", None, _strict_pairs),
        ("max_k_sperner_size", "sperner.kbb", None),
        ("enumerate_maximum_k_sperner", "sperner.kbb", _families_found),
        ("enumerate_maximum_antichains", None, _families_found),
    ],
    "azsperner.twopart": [
        ("conflict_graph", "twopart.conflict_graph", _conflict_edges),
    ],
}


def instrument(tracer: Tracer) -> None:
    """Wrap the traced functions and rebind every azsperner name that refers to them."""
    import importlib

    import azsperner

    names = ["acceptance", "az", "cli", "core", "families", "flows", "mis",
             "properties", "sperner", "twopart"]
    modules = [azsperner] + [importlib.import_module(f"azsperner.{n}") for n in names]
    for modname, entries in FUNCTIONS.items():
        home = sys.modules[modname]
        for fname, span, counter in entries:
            original = getattr(home, fname)
            wrapper = tracer.wrap(original, span, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    from azsperner.core import RankedPoset
    from azsperner.mis import MaxIndependentSet

    for prop in ("up_mask", "down_mask"):
        cp = RankedPoset.__dict__[prop]
        cp.func = tracer.wrap(cp.func, "core.closure", _closure_bytes)
    cp = RankedPoset.__dict__["_chain_dp"]
    cp.func = tracer.wrap(cp.func, "core.chain_dp")
    RankedPoset.enumerate_maximal_chains = tracer.wrap(
        RankedPoset.enumerate_maximal_chains, "core.chain_enum", _chains
    )
    MaxIndependentSet.run = tracer.wrap(MaxIndependentSet.run, "mis.search")
    MaxIndependentSet.enumerate = tracer.wrap(
        MaxIndependentSet.enumerate, "mis.search", _mis_solutions
    )


def traced_import(tracer: Tracer) -> None:
    """Import networkx, then azsperner, each inside its own span."""
    idx = tracer.open("cli.import")
    try:
        inner = tracer.open("cli.import_networkx")
        import networkx  # noqa: F401

        tracer.close(inner)
        import azsperner  # noqa: F401
        import azsperner.cli  # noqa: F401
    finally:
        tracer.close(idx)
