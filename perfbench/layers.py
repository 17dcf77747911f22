"""Per-layer numbers derived from one process's spans.

Times are totals of self time over the traced set-up and one traced pass;
counts are exact for a given workload and seed.
"""

from __future__ import annotations

from spans import Tracer, totals_by_name

BUILDS = (
    "presentations.orbit_presentation",
    "presentations.artin_presentation",
    "presentations.quotient_by",
)

# Cheap sizes, read right after each call.
SIZERS = {
    "combing.comb": lambda args, nf: sum(len(level) for level in nf.levels),
    "words.parse_word": lambda args, word: len(word),
    **{name: (lambda args, p: len(p.relators)) for name in BUILDS},
}
# Smith forms are kept whole: scanning U and V for the largest entry costs
# too much to do inside the calling span.
KEEP = frozenset({"abelian.smith_normal_form"})


def make_tracer() -> Tracer:
    return Tracer(SIZERS, KEEP)


SELF_TIMES = {
    "combing.comb.self_s": ("combing.comb",),
    "combing.words_equal.self_s": ("combing.words_equal",),
    "presentations.build.self_s": BUILDS,
    "words.parse_word.self_s": ("words.parse_word",),
    "words.format_word.self_s": ("words.format_word",),
    "abelian.relation_matrix.self_s": ("abelian.relation_matrix",),
    "abelian.smith_normal_form.self_s": ("abelian.smith_normal_form",),
    "abelian.cokernel.self_s": ("abelian.cokernel",),
    "abelian.h1.self_s": ("abelian.h1",),
    "fibration.boundary_matrix_ab.self_s": ("fibration.boundary_matrix_ab",),
    "fibration.quotient_check.self_s": ("fibration.quotient_check",),
    "fibration.boundary_sum_identity.self_s": ("fibration.boundary_sum_identity",),
    "cli.main.self_s": ("cli.main",),
}

CALLS = {
    "combing.comb.calls": ("combing.comb",),
    "presentations.build.calls": BUILDS,
    "abelian.smith_normal_form.calls": ("abelian.smith_normal_form",),
}

OVERCAP_ERROR = "WordSizeExceededError"


def process_counters(tracer: Tracer) -> dict[str, float]:
    """Self times, call counts and size counters of one traced process."""
    totals = totals_by_name(tracer.spans)
    out: dict[str, float] = {}
    for metric, names in SELF_TIMES.items():
        out[metric] = sum(totals[n][2] for n in names if n in totals)
    for metric, names in CALLS.items():
        out[metric] = sum(totals[n][0] for n in names if n in totals)

    over = [s for s in tracer.spans if s.name == "combing.comb" and s.error == OVERCAP_ERROR]
    out["combing.overcap"] = len(over)
    out["combing.overcap_s"] = sum(s.duration for s in over)

    by_id = {s.span_id: s.name for s in tracer.spans}

    def size_total(*names: str) -> int:
        return sum(size for span_id, size in tracer.sizes.items() if by_id[span_id] in names)

    out["combing.nf_letters"] = size_total("combing.comb")
    out["words.input_letters"] = size_total("words.parse_word")
    out["presentations.relators_built"] = size_total(*BUILDS)
    cells = bits = 0
    for args, form in tracer.kept.values():
        cells += args[0].rows * args[0].cols
        for x in form.U.entries + form.V.entries:
            bits = max(bits, abs(x).bit_length())
    out["abelian.matrix_cells"] = cells
    out["abelian.max_transform_bits"] = bits
    return out


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    """Sum counters over processes; the transform bit length is a maximum."""
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            if key == "abelian.max_transform_bits":
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out
