"""Per-layer tracing from outside the program.

:func:`install` wraps the public entry points of every hypident module in
place, at each name a caller looks them up by: the defining module, every
module that from-imports the name, the ``TruncatedSeries`` and
``VerifyReport`` classes, and the callables stored on each (frozen)
``IdentityDef`` of the catalog registry. Nothing in ``src/`` changes.

Each wrapper records a span. A layer's self time is the span's duration
minus the durations of the spans opened inside it; spans are aggregated in
memory per layer as they close. Work counts are derived from wrapper
arguments and return values only, so two runs over the same inputs give the
same counts.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from time import perf_counter

__all__ = ["Tracer", "install"]


class Tracer:
    """Span stack plus per-layer aggregates."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.max_coeff_bits = 0
        # substitute_even result awaiting its shift: [series, survivors, cap]
        self._pending_block: list | None = None

    def wrap(self, layer: str, fn, count=None):
        """Return ``fn`` wrapped in a span of ``layer``; ``count(args, result)`` runs after the span."""

        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.self_s[layer] += elapsed - children[0]
                self.total_s[layer] += elapsed
                self.calls[layer] += 1
            if count is not None:
                count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- work counts ---------------------------------------------------------

    def count_pfq_series(self, args, result) -> None:
        self.counts["hyper.pfq_series.coeffs"] += len(result.coeffs)

    def count_mul(self, args, result) -> None:
        cap = result.cap
        self.counts["series.mul.coeff_products"] += (cap + 1) * (cap + 2) // 2

    def count_pfq_eval_float(self, args, result) -> None:
        self.counts["hyper.pfq_eval_float.terms"] += result.terms
        self.counts["hyper.pfq_eval_float.converged"] += int(result.converged)

    def count_built_side(self, args, result) -> None:
        for c in result.coeffs:
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    def count_substitute_even(self, args, result) -> None:
        self._settle_block()
        source = args[0]
        self.counts["identities.block_coeffs_computed"] += len(source.coeffs)
        self._pending_block = [result, source.cap // 2 + 1, source.cap]

    def count_shift(self, args, result) -> None:
        pending = self._pending_block
        if pending is not None and args[0] is pending[0]:
            power = args[1]
            pending[1] = max(0, (pending[2] - power) // 2 + 1)
            self._settle_block()

    def _settle_block(self) -> None:
        if self._pending_block is not None:
            self.counts["identities.block_coeffs_kept"] += self._pending_block[1]
            self._pending_block = None

    def finish(self) -> None:
        """Settle a block left without a shift; call once, after the last traced call."""
        self._settle_block()


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the imported hypident package."""
    from hypident import cli, hyper, identities, rationals, reports, series, verify

    def patch(layer, owners, name, count=None):
        """Rebind ``name`` on its defining owner (first) and on every importer that has it."""
        wrapper = tracer.wrap(layer, getattr(owners[0], name), count)
        for owner in owners:
            if hasattr(owner, name):
                setattr(owner, name, wrapper)

    # module functions, at the defining module and at every from-import site
    patch("cli.run", [cli], "run")
    patch("verify.verify_identity", [verify, cli], "verify_identity")
    patch("verify.check_admissible", [verify], "check_admissible")
    patch("hyper.pfq_series", [hyper, identities], "pfq_series", tracer.count_pfq_series)
    patch("hyper.pfq_eval_float", [hyper, identities], "pfq_eval_float", tracer.count_pfq_eval_float)
    patch("hyper.bailey_product_series", [hyper, identities], "bailey_product_series")
    patch("series.exp", [series, identities], "exp_series")
    patch("rationals.pochhammer", [rationals, identities], "pochhammer")
    patch("reports.compare_series", [reports, identities], "compare_series")
    patch("reports.render", [reports, cli], "reports_to_csv")

    # methods: a class attribute change reaches every instance and operator
    TS = series.TruncatedSeries
    patch("series.mul", [TS], "__mul__", tracer.count_mul)
    patch("series.reshape", [TS], "substitute_even", tracer.count_substitute_even)
    patch("series.reshape", [TS], "shift", tracer.count_shift)
    for name in ("scale", "scale_argument", "__add__", "__sub__"):
        patch("series.reshape", [TS], name)
    for name in ("to_json_dict", "render_text", "summary_line"):
        patch("reports.render", [reports.VerifyReport], name)

    # IdentityDef is frozen: replace each registry entry with a wrapped copy
    fields = {
        "build_lhs": ("identities.build_lhs", tracer.count_built_side),
        "build_rhs": ("identities.build_rhs", tracer.count_built_side),
        "lhs_float": ("identities.float_sides", None),
        "rhs_float": ("identities.float_sides", None),
        "scalar_exact": ("identities.scalar_sides", None),
        "scalar_float": ("identities.scalar_sides", None),
    }
    registry = identities._REGISTRY
    for key, define in list(registry.items()):
        changes = {
            field: tracer.wrap(layer, getattr(define, field), count)
            for field, (layer, count) in fields.items()
            if getattr(define, field, None) is not None
        }
        registry[key] = dataclasses.replace(define, **changes)
