"""The records are immutable named tuples: construction validates however
the fields are passed, and equality, hashing, ordering, repr and pickling
behave as value types."""
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from permpat.bigraphs import BipartiteGraph, Power
from permpat.counting import CountRecord, CountWork
from permpat.errors import ParseError
from permpat.matrices import BinaryMatrix
from permpat.words import MultisetSpec, Word

SRC = Path(__file__).resolve().parents[1] / "src"

# (one value of each validated type, built twice from equal inputs, and the
# repr it reads as)
VALUES = [
    (lambda: Word([2, 1, 2]), "Word(entries=(2, 1, 2))"),
    (lambda: MultisetSpec([2, 2]), "MultisetSpec(multiplicities=(2, 2))"),
    (lambda: BinaryMatrix([[1, 0], [0, 1]]),
     "BinaryMatrix(cells=((1, 0), (0, 1)))"),
    (lambda: BipartiteGraph(2, 1, [(1, 1)]),
     "BipartiteGraph(left_size=2, right_size=1, edges=frozenset({(1, 1)}))"),
    (lambda: Power(2, 1.5), "Power(base=2, exponent=Fraction(3, 2))"),
    (lambda: CountRecord(MultisetSpec((1,)), Word((1,)), 0, 1),
     "CountRecord(spec=MultisetSpec(multiplicities=(1,)), "
     "pattern=Word(entries=(1,)), count=0, total=1, "
     "work=CountWork(layers=0, peak_states=0, transitions=0))"),
]

# (a call with positional fields, the same call with keyword fields, and the
# error both must raise)
INVALID = [
    (lambda: Word((1, 3)), lambda: Word(entries=(1, 3)), ParseError),
    (lambda: MultisetSpec((2, 0)),
     lambda: MultisetSpec(multiplicities=(2, 0)), ParseError),
    (lambda: BinaryMatrix(((1, 0), (1,))),
     lambda: BinaryMatrix(cells=((1, 0), (1,))), ParseError),
    (lambda: BipartiteGraph(1, 1, {(1, 2)}),
     lambda: BipartiteGraph(left_size=1, right_size=1, edges={(1, 2)}),
     ParseError),
    (lambda: Power(2, "x"), lambda: Power(base=2, exponent="x"), ValueError),
    (lambda: CountRecord(MultisetSpec((2, 2)), Word((1, 2)), 7, 6),
     lambda: CountRecord(spec=MultisetSpec((2, 2)), pattern=Word((1, 2)),
                         count=7, total=6), ArithmeticError),
]


@pytest.mark.parametrize("positional, keyword, error", INVALID)
def test_construction_validates(positional, keyword, error):
    for make in (positional, keyword):
        with pytest.raises(error):
            make()


def test_keyword_construction_normalises():
    assert Word(entries=[2, 1, 2]).entries == (2, 1, 2)
    assert MultisetSpec(multiplicities=[2, 2]).multiplicities == (2, 2)
    assert BinaryMatrix(cells=[[1, 0]]).cells == ((1, 0),)
    assert BipartiteGraph(left_size=1, right_size=1,
                          edges=[(1, 1)]).edges == frozenset({(1, 1)})
    exponent = Power(base=2, exponent=1.5).exponent
    assert type(exponent) is Fraction and exponent == Fraction(3, 2)
    assert CountRecord(spec=MultisetSpec((1,)), pattern=Word((1,)),
                       count=1, total=1).work == CountWork(0, 0, 0)


@pytest.mark.parametrize("make, text", VALUES)
def test_value_semantics(make, text):
    value = make()
    assert repr(value) == text
    assert value == make() and hash(value) == hash(make())
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)


def test_records_equal_their_field_tuples():
    assert Word((1, 2)) == ((1, 2),)
    assert hash(MultisetSpec((2, 2))) == hash(((2, 2),))


def test_sorted_orders_by_fields():
    words = [Word((2, 1)), Word((1,)), Word((1, 2)), Word((1, 1))]
    assert sorted(words) == [Word((1,)), Word((1, 1)), Word((1, 2)),
                             Word((2, 1))]
    specs = [MultisetSpec((2,)), MultisetSpec((1, 3)), MultisetSpec((1, 2))]
    assert sorted(specs) == [MultisetSpec((1, 2)), MultisetSpec((1, 3)),
                             MultisetSpec((2,))]
    grids = [BinaryMatrix(((1, 0),)), BinaryMatrix(((0, 1), (1, 1))),
             BinaryMatrix(((0, 1),))]
    assert sorted(grids) == [BinaryMatrix(((0, 1),)),
                             BinaryMatrix(((0, 1), (1, 1))),
                             BinaryMatrix(((1, 0),))]


def test_cli_import_skips_dataclasses():
    # `import permpat.cli` is what every command pays before it works;
    # dataclasses would bring inspect, ast, dis and tokenize with it.  The
    # modules already loaded at start-up (by `site`) do not count.
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "before = set(sys.modules); import permpat.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    added = set(out.split())
    assert "permpat.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
