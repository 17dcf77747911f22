"""Word layer: reduction, algebra, and the text syntax."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import braidcomb
from braidcomb import (
    IDENTITY,
    BoundarySumReport,
    CenterReport,
    ExactnessReport,
    FGAbelianGroup,
    FibreElement,
    GenFamily,
    GeneratorSymbol,
    IntMatrix,
    InvalidArgumentError,
    Letter,
    MissingImageError,
    NonSplitReport,
    NormalForm,
    Presentation,
    QuotientReport,
    SplitReport,
    Surface,
    TowerSpec,
    Word,
    WordSizeExceededError,
    abelian,
    apply_homomorphism,
    band_gen,
    combing,
    concat,
    exponent_sum,
    fibration,
    format_word,
    invert,
    orbit_gen,
    orbit_presentation,
    parse_word,
    presentations,
    reduce,
    word_power,
    words,
)

R10 = orbit_gen(1, 0)
R20 = orbit_gen(2, 0)
R21 = orbit_gen(2, 1)
R22 = orbit_gen(2, 2)


def L(sym, e=1):
    return Letter(sym, e)


# --- symbols ---------------------------------------------------------------


def test_orbit_gen_validation():
    orbit_gen(1, 0)
    orbit_gen(3, 4)  # i may reach 2j-2
    with pytest.raises(InvalidArgumentError):
        orbit_gen(0, 0)
    with pytest.raises(InvalidArgumentError):
        orbit_gen(1, 1)
    with pytest.raises(InvalidArgumentError):
        orbit_gen(2, 3)
    with pytest.raises(InvalidArgumentError):
        orbit_gen(2, -1)


def test_band_gen_validation():
    band_gen(1, 2)
    band_gen(2, 5)
    with pytest.raises(InvalidArgumentError):
        band_gen(2, 2)
    with pytest.raises(InvalidArgumentError):
        band_gen(3, 2)
    with pytest.raises(InvalidArgumentError):
        band_gen(0, 1)


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: GeneratorSymbol(GenFamily.ORBIT, (1,)), "(1,)"),
        (lambda: GeneratorSymbol(GenFamily.BAND, (1,)), "(1,)"),
        (lambda: Letter(R10, 2), "got 2"),
    ],
    ids=["orbit-one-index", "band-one-index", "letter-exponent-2"],
)
def test_refusals_are_typed_and_name_the_bad_value(build, bad):
    with pytest.raises(InvalidArgumentError) as refused:
        build()
    assert bad in str(refused.value)


# --- shared symbols -----------------------------------------------------------


def test_helpers_share_one_symbol_per_generator():
    assert orbit_gen(3, 1) is orbit_gen(3, 1)
    assert band_gen(2, 5) is band_gen(2, 5)
    assert parse_word("r(3,1)").letters[0].symbol is orbit_gen(3, 1)
    assert parse_word("A(2,5)^-2").letters[1].symbol is band_gen(2, 5)


def test_a_directly_built_symbol_equals_the_shared_one():
    direct = GeneratorSymbol(GenFamily.ORBIT, (3, 1))
    assert direct == orbit_gen(3, 1)
    assert hash(direct) == hash(orbit_gen(3, 1))
    assert {orbit_gen(3, 1): "found"}[direct] == "found"
    assert GeneratorSymbol(GenFamily.BAND, (3, 4)) != orbit_gen(3, 4)
    for twin in (pickle.loads(pickle.dumps(orbit_gen(3, 1))), copy.deepcopy(orbit_gen(3, 1))):
        assert twin == orbit_gen(3, 1) and hash(twin) == hash(orbit_gen(3, 1))


def test_invalid_indices_are_refused_and_cached_nowhere():
    for _ in range(2):
        with pytest.raises(InvalidArgumentError):
            orbit_gen(2, 3)
        with pytest.raises(InvalidArgumentError):
            parse_word("A(3,2)")
    assert orbit_gen(2, 2).indices == (2, 2)
    assert band_gen(2, 3).indices == (2, 3)


_PICKLE_SYMBOLS = """
import pickle, sys
from braidcomb import GenFamily, GeneratorSymbol, band_gen, orbit_gen
symbols = [GeneratorSymbol(GenFamily.ORBIT, (3, 1)), band_gen(2, 5), orbit_gen(4, 6)]
sys.stdout.buffer.write(pickle.dumps((symbols, [hash(s) for s in symbols])))
"""

_LOOK_UP_SYMBOLS = """
import pickle, sys
from braidcomb import GenFamily, GeneratorSymbol
symbols, hashes = pickle.loads(sys.stdin.buffer.read())
fresh = {
    GeneratorSymbol(GenFamily.ORBIT, (3, 1)): 0,
    GeneratorSymbol(GenFamily.BAND, (2, 5)): 1,
    GeneratorSymbol(GenFamily.ORBIT, (4, 6)): 2,
}
print([fresh.get(s) for s in symbols], hashes == [hash(s) for s in fresh])
"""


def test_a_symbol_pickled_under_one_hash_seed_is_found_under_another():
    def child(code, seed, stdin=b""):
        src = str(Path(braidcomb.__file__).parents[1])
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], input=stdin, env=env, capture_output=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    pickled = child(_PICKLE_SYMBOLS, 1)
    assert child(_LOOK_UP_SYMBOLS, 2, pickled).decode().split() == ["[0,", "1,", "2]", "True"]


def test_the_shared_symbols_are_bounded():
    tallest = TowerSpec(GenFamily.ORBIT, 50), TowerSpec(GenFamily.BAND, 71)
    assert sum(t.generator_count() for t in tallest) <= words._SHARED_SYMBOLS
    for j in range(1, words._SHARED_SYMBOLS + 11):
        orbit_gen(j, 0)
    info = words._symbol.cache_info()
    assert info.currsize == info.maxsize == words._SHARED_SYMBOLS
    # Eviction costs identity, never equality.
    assert GeneratorSymbol(GenFamily.ORBIT, (1, 0)) == orbit_gen(1, 0)


def test_levels():
    assert orbit_gen(3, 4).level == 3
    assert band_gen(1, 4).level == 4


# --- words and reduction ----------------------------------------------------


def test_reduce_cancels_inverse_pairs():
    w = reduce([L(R10), L(R20), L(R20, -1), L(R10, -1)])
    assert w.is_identity


def test_reduce_cascading_cancellation():
    # r21 r22 r22^-1 r21^-1 r10 collapses to r10
    w = reduce([L(R21), L(R22), L(R22, -1), L(R21, -1), L(R10)])
    assert w == Word((L(R10),))


def test_word_rejects_unreduced():
    with pytest.raises(InvalidArgumentError):
        Word((L(R10), L(R10, -1)))


@pytest.mark.parametrize("letters", [("x",), (1, 2), (L(R10), R21)], ids=["str", "int", "symbol"])
def test_word_refuses_an_element_that_is_not_a_letter(letters):
    with pytest.raises(InvalidArgumentError, match="a word's letters must be Letters"):
        Word(letters)


def test_concat_boundary_cancellation():
    u = Word((L(R10), L(R21)))
    v = Word((L(R21, -1), L(R10, -1), L(R20)))
    assert concat(u, v) == Word((L(R20),))


def test_mul_sugar_and_inverse():
    u = Word((L(R10), L(R21)))
    assert (u * u.inverse()).is_identity
    assert u.inverse() == Word((L(R21, -1), L(R10, -1)))


@pytest.mark.parametrize("other", [2, R10, L(R10)], ids=["int", "symbol", "letter"])
def test_a_word_times_a_non_word_is_a_type_error(other):
    # As 2 * u already was: Word.__mul__ declines, and nothing else accepts.
    u = Word((L(R10),))
    with pytest.raises(TypeError, match="unsupported operand"):
        u * other
    with pytest.raises(TypeError, match="unsupported operand"):
        other * u


def test_exponent_sum():
    w = parse_word("r(1,0) r(2,1) r(1,0) r(2,1)^-1 r(1,0)^-1")
    assert exponent_sum(w, R10) == 1
    assert exponent_sum(w, R21) == 0
    assert exponent_sum(w, R20) == 0


def test_word_power():
    a, b = L(R20), L(R21)
    w = Word((a, b, a.inverse()))  # consecutive copies cancel across each join
    assert word_power(w, 0) == Word()
    assert word_power(w, 1) == w
    assert word_power(w, 3) == Word((a, b, b, b, a.inverse()))
    assert word_power(w, -2) == Word((a, b.inverse(), b.inverse(), a.inverse()))


# --- homomorphism application ------------------------------------------------


def test_apply_homomorphism_substitutes_and_reduces():
    images = {
        R10: parse_word("r(2,0) r(2,1)"),
        R21: parse_word("r(2,1)"),
    }
    w = parse_word("r(1,0) r(2,1)^-1")
    # r20 r21 r21^-1 -> r20
    assert apply_homomorphism(w, images) == parse_word("r(2,0)")


def test_apply_homomorphism_missing_image():
    with pytest.raises(MissingImageError) as exc:
        apply_homomorphism(parse_word("r(2,2)"), {})
    assert exc.value.symbol == R22


# --- text syntax -------------------------------------------------------------


def test_parse_basic():
    w = parse_word("r(2,1) A(1,3)^-1")
    assert w.letters == (L(orbit_gen(2, 1)), L(band_gen(1, 3), -1))


def test_parse_identity_forms():
    assert parse_word("").is_identity
    assert parse_word("1").is_identity
    assert parse_word("   ").is_identity


def test_parse_exponent_expansion():
    assert parse_word("r(1,0)^3") == parse_word("r(1,0) r(1,0) r(1,0)")
    assert parse_word("r(1,0)^-2") == parse_word("r(1,0)^-1 r(1,0)^-1")
    with pytest.raises(InvalidArgumentError):
        parse_word("r(1,0)^0")


def test_parse_bounds_expansion_by_the_cap():
    assert len(parse_word("r(1,0)^10", word_cap=10)) == 10
    assert len(parse_word("r(1,0)^-10", word_cap=10)) == 10
    with pytest.raises(WordSizeExceededError) as err:
        parse_word("r(1,0)^11", word_cap=10)
    assert (err.value.length, err.value.cap) == (11, 10)
    # The running length counts expanded letters before any reduction.
    with pytest.raises(WordSizeExceededError) as err:
        parse_word("r(1,0)^5 r(2,1)^6", word_cap=10)
    assert (err.value.length, err.value.cap) == (11, 10)
    with pytest.raises(WordSizeExceededError):
        parse_word("r(1,0)^6 r(1,0)^-5", word_cap=10)


def test_parse_refuses_a_number_of_too_many_digits_before_converting_it():
    huge = "9" * 5000  # past Python's int-string limit of 4,300 digits
    for text in (f"r(2,1)^{huge}", f"r(2,1)^-{huge}", f"r({huge},0)", f"A(1,{huge})"):
        with pytest.raises(InvalidArgumentError, match="more than 100 digits"):
            parse_word(text)
    # Up to the bound an exponent is read and refused by the word cap.
    with pytest.raises(WordSizeExceededError) as err:
        parse_word("r(2,1)^" + "9" * 100)
    assert err.value.length == 10**100 - 1


def test_parse_rejects_garbage():
    for bad in ["q(1,0)", "r(1)", "p(1)", "p(1)^2", "p(1,2)", "r(1,0]^2", "r(1,0)^", "A(3,2)"]:
        with pytest.raises(InvalidArgumentError):
            parse_word(bad)


def test_format_identity_is_one():
    assert format_word(Word()) == "1"


def test_format_uses_only_unit_exponents():
    w = parse_word("r(1,0)^2")
    assert format_word(w) == "r(1,0) r(1,0)"
    assert str(parse_word("A(1,2)^-1")) == "A(1,2)^-1"


# --- property tests ----------------------------------------------------------

_symbols = st.one_of(
    st.integers(1, 4).flatmap(
        lambda j: st.integers(0, 2 * j - 2).map(lambda i: orbit_gen(j, i))
    ),
    st.integers(2, 5).flatmap(
        lambda j: st.integers(1, j - 1).map(lambda i: band_gen(i, j))
    ),
)
_letters = st.builds(Letter, _symbols, st.sampled_from((1, -1)))
_raw_words = st.lists(_letters, max_size=30)
_words = _raw_words.map(reduce)


@given(_raw_words)
def test_reduce_is_idempotent(raw):
    once = reduce(raw)
    assert reduce(once.letters) == once


@given(_words, _words, _words)
def test_concat_is_associative(u, v, w):
    assert concat(concat(u, v), w) == concat(u, concat(v, w))


@given(_words)
def test_invert_is_an_involution(w):
    assert invert(invert(w)) == w
    assert concat(w, invert(w)).is_identity
    assert concat(invert(w), w).is_identity


@given(_words, _words)
def test_invert_antihomomorphism(u, v):
    assert invert(concat(u, v)) == concat(invert(v), invert(u))


@given(_words, _words, _symbols)
def test_exponent_sum_is_additive(u, v, s):
    assert exponent_sum(concat(u, v), s) == exponent_sum(u, s) + exponent_sum(v, s)
    assert exponent_sum(invert(u), s) == -exponent_sum(u, s)


@given(_words)
def test_text_round_trip(w):
    assert parse_word(format_word(w)) == w


# --- frozen value classes -------------------------------------------------------

_S2_3 = FibreElement.identity(Surface.S2, 3)

# (class, the fields of one value, a (field, value) change that makes
# another value, the fields left at their defaults in that value)
_VALUE_CLASSES = [
    (GeneratorSymbol, dict(family=GenFamily.ORBIT, indices=(2, 1)), ("indices", (2, 0)), ()),
    (Letter, dict(symbol=R21, exponent=1), ("exponent", -1), ("exponent",)),
    (Word, dict(letters=()), ("letters", (L(R10),)), ("letters",)),
    (TowerSpec, dict(family=GenFamily.BAND, n=3), ("n", 4), ()),
    (
        Presentation,
        dict(generators=(R10,), relators=(parse_word("r(1,0)^2"),), tower=None),
        ("relators", ()),
        ("tower",),
    ),
    (NormalForm, dict(levels=(parse_word("r(2,1)"), IDENTITY)), ("levels", (IDENTITY, IDENTITY)), ()),
    (
        CenterReport,
        dict(n=2, theta_commutes=True, commutation_failures=(), theta_powers=(R10,), witnesses=((R21, None),)),
        ("theta_commutes", False),
        (),
    ),
    (IntMatrix, dict(rows=1, cols=2, entries=(1, 2)), ("entries", (2, 1)), ()),
    (FGAbelianGroup, dict(free_rank=1, torsion=()), ("torsion", (2,)), ("torsion",)),
    (FibreElement, dict(surface=Surface.S2, n=3, r_part=IDENTITY, z_part=(0, 0)), ("z_part", (1, 0)), ()),
    (
        ExactnessReport,
        dict(surface=Surface.S2, n=3, matrix_rank=3, injective=True, z_factor_saturated=True),
        ("injective", False),
        (),
    ),
    (
        QuotientReport,
        dict(surface=Surface.RP2, n=2, from_cokernel=FGAbelianGroup(1), from_presentation=FGAbelianGroup(1)),
        ("from_presentation", FGAbelianGroup(0, (2,))),
        (),
    ),
    (
        SplitReport,
        dict(
            coeff=FGAbelianGroup(1), n=2, vector=(1, 0), section_index=0, section_identity=True,
            quotient=FGAbelianGroup(1), expected=FGAbelianGroup(1),
        ),
        ("section_index", 1),
        (),
    ),
    (
        NonSplitReport,
        dict(n=3, middle_h1=FGAbelianGroup(5), quotient_h1=FGAbelianGroup(4, (2,)),
             middle_torsion_free=True, quotient_has_two_torsion=True),
        ("n", 4),
        (),
    ),
    (
        BoundarySumReport,
        dict(surface=Surface.S2, n=3, signed_sum=_S2_3, tau_hat_squared=_S2_3, agree=True),
        ("agree", False),
        (),
    ),
]


def test_every_frozen_class_is_covered():
    frozen_setattr = Word.__setattr__.__code__
    found = {
        cls
        for module in (words, presentations, combing, abelian, fibration)
        for cls in vars(module).values()
        if isinstance(cls, type)
        and getattr(cls.__dict__.get("__setattr__"), "__code__", None) is frozen_setattr
    }
    assert found == {case[0] for case in _VALUE_CLASSES}
    assert len(found) == 15


@pytest.mark.parametrize(
    "cls, fields, change, defaults", _VALUE_CLASSES, ids=[case[0].__name__ for case in _VALUE_CLASSES]
)
def test_a_frozen_value_class(cls, fields, change, defaults):
    value = cls(**fields)
    twin = cls(*fields.values())
    other = cls(**dict(fields, **dict([change])))
    assert tuple(getattr(value, name) for name in fields) == tuple(fields.values())

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == tuple(fields.values())

    # Equal only to a value of its own class with equal fields.
    assert value == twin and not value != twin
    assert value != other
    assert value != tuple(fields.values())
    lookalike = words._frozen(type("Lookalike", (), {"__annotations__": dict.fromkeys(fields)}))
    assert value != lookalike(**fields) and lookalike(**fields) != value

    assert hash(value) == hash(twin) == hash(cls(**fields))
    assert len({value, twin, other}) == 2

    assert cls(**{name: v for name, v in fields.items() if name not in defaults}) == value
    with pytest.raises(TypeError):
        cls(**fields, extra=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), *fields.values())

    assert repr(value).startswith(f"{cls.__name__}({next(iter(fields))}=")
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is cls and copied == value and hash(copied) == hash(value)


_SPLIT_FIELDS = dict(
    coeff=FGAbelianGroup(1), n=2, vector=(1, 0), section_index=0, section_identity=True,
    quotient=FGAbelianGroup(1), expected=FGAbelianGroup(1),
)
_CENTER_FIELDS = dict(
    n=2, theta_commutes=True, commutation_failures=(R21,), theta_powers=(R10,),
    witnesses=((R21, R20),),
)


@pytest.mark.parametrize(
    "cls, fields, name",
    [
        (GeneratorSymbol, dict(family=GenFamily.ORBIT, indices=(2, 1)), "indices"),
        (Word, dict(letters=(L(R10), L(R21))), "letters"),
        (Presentation, dict(generators=(R10, R20), relators=(parse_word("r(1,0) r(2,0)^2"),)), "generators"),
        (Presentation, dict(generators=(R10,), relators=(parse_word("r(1,0)^2"),)), "relators"),
        (NormalForm, dict(levels=(parse_word("r(2,1)"), parse_word("r(1,0)"))), "levels"),
        (FibreElement, dict(surface=Surface.S2, n=3, r_part=IDENTITY, z_part=(1, 0)), "z_part"),
        (IntMatrix, dict(rows=1, cols=2, entries=(1, 2)), "entries"),
        (FGAbelianGroup, dict(free_rank=1, torsion=(2, 4)), "torsion"),
        (SplitReport, _SPLIT_FIELDS, "vector"),
        (CenterReport, _CENTER_FIELDS, "commutation_failures"),
        (CenterReport, _CENTER_FIELDS, "theta_powers"),
        (CenterReport, _CENTER_FIELDS, "witnesses"),
    ],
    ids=[
        "GeneratorSymbol", "Word", "Presentation-generators", "Presentation-relators",
        "NormalForm", "FibreElement", "IntMatrix", "FGAbelianGroup", "SplitReport",
        "CenterReport-failures", "CenterReport-powers", "CenterReport-witnesses",
    ],
)
def test_a_list_argument_is_stored_as_a_tuple(cls, fields, name):
    from_tuple = cls(**fields)
    from_list = cls(**dict(fields, **{name: list(fields[name])}))
    assert type(getattr(from_list, name)) is tuple
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert getattr(from_tuple, name) is fields[name]  # a tuple is not copied


def test_a_marked_presentation_survives_pickle_and_deepcopy():
    marked = orbit_presentation(3)
    for copied in (pickle.loads(pickle.dumps(marked)), copy.deepcopy(marked)):
        assert copied == marked and copied.relators == marked.relators
