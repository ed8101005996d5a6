"""Value semantics of the five records: immutable, equal by their fields,
and with the reprs that name each field."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilpath.charpoly import GF2Poly
from nilpath.gf2 import GF2Matrix, _product
from nilpath.proofcheck import ClassCensus
from nilpath.report import Detail, ParityReport


def detail():
    return Detail("parity", "even", None, "census")


# each builder makes a new record, from new but equal field values, on every
# call; the text is the record's repr
RECORDS = {
    "GF2Matrix": (lambda: GF2Matrix(2, tuple([2, 1])), "GF2Matrix(n=2, rows=(2, 1))"),
    "GF2Poly": (lambda: GF2Poly(0b1011), "GF2Poly(bits=11)"),
    "ClassCensus": (
        lambda: ClassCensus(4, 2, 6, tuple([0, 1, 1])),
        "ClassCensus(c1=4, c2=2, c3=6, per_step_c2=(0, 1, 1))",
    ),
    "Detail": (
        detail,
        "Detail(check='parity', expected='even', observed=None, provenance='census')",
    ),
    "ParityReport": (
        lambda: ParityReport("charpoly", {"n": 7, "x": None}, (detail(),)),
        "ParityReport(command='charpoly', parameters={'n': 7, 'x': None}, details="
        "(Detail(check='parity', expected='even', observed=None, provenance='census'),),"
        " elapsed_ms=0.0)",
    ),
}
BUILDERS = {name: build for name, (build, _) in RECORDS.items()}
HASHABLE = ["GF2Matrix", "GF2Poly", "ClassCensus", "Detail"]


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_every_field(name):
    build, text = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_added(name):
    record = BUILDERS[name]()
    for field in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    assert repr(record) == RECORDS[name][1]


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_make_equal_records(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert a is not b and a == b and not a != b


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_records_hash_equal(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_a_report_with_its_parameter_dict_is_unhashable():
    with pytest.raises(TypeError):
        hash(BUILDERS["ParityReport"]())


@pytest.mark.parametrize(
    "one, other",
    [
        (GF2Matrix(2, (2, 1)), GF2Matrix(2, (2, 0))),
        (GF2Poly(3), GF2Poly(2)),
        (ClassCensus(1, 2, 3, (2,)), ClassCensus(1, 2, 3, (1, 1))),
        (Detail("a", 1, 1, "p"), Detail("a", 1, 2, "p")),
        (ParityReport("c", {}, ()), ParityReport("c", {}, (), 1.0)),
    ],
)
def test_one_differing_field_makes_unequal_records(one, other):
    assert one != other and not one == other


def test_keywords_build_the_same_records():
    assert GF2Matrix(n=2, rows=(2, 1)) == BUILDERS["GF2Matrix"]()
    assert GF2Poly(bits=11) == BUILDERS["GF2Poly"]()
    assert ClassCensus(c1=4, c2=2, c3=6, per_step_c2=(0, 1, 1)) == BUILDERS["ClassCensus"]()
    assert ParityReport(
        command="charpoly", parameters={"n": 7, "x": None}, details=(detail(),), elapsed_ms=0.0
    ) == BUILDERS["ParityReport"]()


def test_a_matrix_keeps_its_rows_as_a_tuple():
    from_list, from_tuple = GF2Matrix(2, [2, 1]), GF2Matrix(2, (2, 1))
    assert type(from_list.rows) is tuple
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert repr(from_list) == repr(from_tuple) == "GF2Matrix(n=2, rows=(2, 1))"
    # the list given is copied, so changing it later changes no matrix
    rows = [2, 1]
    kept = GF2Matrix(2, rows)
    rows.append(7)
    assert kept.rows == (2, 1)


@st.composite
def in_range_rows(draw):
    n = draw(st.integers(1, 70))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))


@given(in_range_rows())
def test_a_trusted_product_is_the_checked_matrix(case):
    n, rows = case
    built = _product(n, rows)
    checked = GF2Matrix(n, tuple(rows))
    assert type(built) is GF2Matrix and built == checked and hash(built) == hash(checked)
    assert repr(built) == repr(checked)
