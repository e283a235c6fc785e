"""Spans around the public functions of each ualg layer.

A span is recorded at the name a caller resolves, for example
`ualg.cli.satisfies_all` for the CLI and `ualg.terms.satisfies_all` for
`preservation_suite`, which imports it at call time.  Spans stay in
memory; a layer's self time is its spans' time minus the time of their
child spans, so a projection check inside `direct_product` is charged to
`morphisms`, not to `products`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

LAYERS = ("cli", "fileformat", "core", "presets", "terms", "generation", "morphisms",
          "products", "reduced_power", "free_semigroup")

# (module, attribute, layer): every function on the CLI path at the
# name its caller looks it up by.
TARGETS = [
    ("ualg.cli", "main", "cli"),
    ("ualg.cli", "parse_algebra_file", "fileformat"),
    ("ualg.cli", "parse_equation_file", "fileformat"),
    ("ualg.cli", "serialize_algebra", "fileformat"),
    ("ualg.core", "validate_algebra", "core"),
    ("ualg.core", "is_subuniverse", "core"),
    ("ualg.core", "Subuniverse.of", "core"),
    ("ualg.cli", "preset", "presets"),
    ("ualg.cli", "satisfies_all", "terms"),
    ("ualg.terms", "satisfies_all", "terms"),
    ("ualg.cli", "parse_term", "terms"),
    ("ualg.cli", "eval_term", "terms"),
    ("ualg.cli", "generate", "generation"),
    ("ualg.cli", "clone_n", "generation"),
    ("ualg.cli", "enumerate_homomorphisms", "morphisms"),
    ("ualg.cli", "check_isomorphism", "morphisms"),
    ("ualg.cli", "find_retractions", "morphisms"),
    ("ualg.cli", "reduct", "morphisms"),
    ("ualg.morphisms", "check_homomorphism", "morphisms"),
    ("ualg.products", "check_homomorphism", "morphisms"),
    ("ualg.reduced_power", "check_homomorphism", "morphisms"),
    ("ualg.cli", "direct_product", "products"),
    ("ualg.cli", "adjoin_generate", "reduced_power"),
    ("ualg.reduced_power", "adjoin_generate", "reduced_power"),
    ("ualg.cli", "preservation_suite", "reduced_power"),
    ("ualg.cli", "parse_ep_sequence", "reduced_power"),
    ("ualg.cli", "coordinate_retraction", "reduced_power"),
    ("ualg.cli", "build_truncated", "free_semigroup"),
    ("ualg.cli", "search_bounded_retraction", "free_semigroup"),
    ("ualg.cli", "word_str", "free_semigroup"),
]


class Tracer:
    """Records spans as [name, layer, start, end, parent index, job]
    lists; `job` is set by the caller before each job."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, layer: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for module, path, layer in TARGETS:
            owner = importlib.import_module(module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            raw = vars(owner).get(attr)
            if raw is None:
                print(f"trace: {module}.{path} not found, not traced", file=sys.stderr)
                continue
            self._saved.append((owner, attr, raw))
            name = f"{module}.{path}"
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, layer, raw.__func__)))
            else:
                setattr(owner, attr, self._wrap(name, layer, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def layer_totals(self, first: int) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per layer over the spans from index
        `first` on."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans[first:]:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for i in range(first, len(self.spans)):
            _, layer, start, end, _, _ = self.spans[i]
            totals[layer][0] += 1
            totals[layer][1] += end - start - child_time[i]
        return {layer: (calls, s) for layer, (calls, s) in totals.items()}
