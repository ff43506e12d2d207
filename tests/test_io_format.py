import json
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hyperfields import (
    DocumentError,
    DomainError,
    ParseError,
    ValidationError,
    candidate_from_document,
    default_labels,
    enumerate_hyperfields,
    from_field,
    gf,
    hyperfield_of_order,
    massouros,
    pair_hyperfield,
    parse_document,
    pretty_table,
    quotient,
    render_document,
    subgroup_closure,
    to_document,
    verify,
)
from conftest import five_element_candidate

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

FIVE_TABLE_TEXT = """\
⊕ | 0   | 1           | a           | b           | c
0 | {0} | {1}         | {a}         | {b}         | {c}
1 | {1} | {1}         | {1,a}       | {0,1,a,b,c} | {1,c}
a | {a} | {1,a}       | {a}         | {a,b}       | {0,1,a,b,c}
b | {b} | {0,1,a,b,c} | {a,b}       | {b}         | {b,c}
c | {c} | {1,c}       | {0,1,a,b,c} | {b,c}       | {c}

· | 0 | 1 | a | b | c
0 | 0 | 0 | 0 | 0 | 0
1 | 0 | 1 | a | b | c
a | 0 | a | b | c | 1
b | 0 | b | c | 1 | a
c | 0 | c | 1 | a | b
"""


FIVE = five_element_candidate()
LABELS = st.one_of(st.none(), st.integers(), st.booleans(), st.floats(), st.text(max_size=6),
                   st.lists(st.one_of(st.text(max_size=3), st.integers(), st.none()), max_size=6),
                   st.lists(st.text(max_size=3), min_size=5, max_size=5),
                   st.dictionaries(st.text(max_size=2), st.integers(), max_size=6))
METADATA = st.one_of(st.none(), st.text(), st.integers(), st.booleans(), st.binary(max_size=3),
                     st.lists(st.text(max_size=3), max_size=2),
                     st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def doc_text(candidate, **kwargs):
    return render_document(to_document(candidate, **kwargs))


class TestRoundTrip:
    def test_document_round_trip(self, five_candidate):
        doc = to_document(five_candidate, labels="01abc", metadata="printed example")
        assert parse_document(render_document(doc)) == doc

    def test_candidate_round_trip(self, five_candidate):
        doc = parse_document(doc_text(five_candidate))
        assert candidate_from_document(doc) == five_candidate

    def test_enumeration_output_round_trips(self):
        for n in (2, 3, 4):
            for h in enumerate_hyperfields(n):
                doc = to_document(h.candidate)
                assert parse_document(render_document(doc)) == doc
                assert candidate_from_document(doc) == h.candidate

    def test_construction_output_round_trips(self):
        for h in (massouros(gf(2, 2)), from_field(gf(5))):
            doc = to_document(h.candidate)
            assert parse_document(render_document(doc)) == doc

    def test_rendering_is_deterministic(self, five_candidate):
        assert doc_text(five_candidate) == doc_text(five_candidate)

    @given(LABELS, METADATA)
    def test_every_document_to_document_accepts_renders_back(self, labels, metadata):
        """Whatever to_document() accepts renders to text that parses and
        renders back to the same text; whatever it refuses, it refuses with
        DomainError: labels that are no collection of five, metadata that is
        no string."""
        labels_ok = labels is None or isinstance(labels, (str, list, dict)) and len(labels) == 5
        metadata_ok = metadata is None or isinstance(metadata, str)
        try:
            doc = to_document(FIVE, labels=labels, metadata=metadata)
        except DomainError:
            assert not (labels_ok and metadata_ok)
            return
        assert labels_ok and metadata_ok
        text = render_document(doc)
        assert render_document(parse_document(text)) == text
        assert parse_document(text).metadata == metadata

    @pytest.mark.parametrize("metadata", [5, ["x"], {"a": 1}, True, b"x", 1.5])
    def test_metadata_that_is_not_a_string_is_refused(self, metadata):
        with pytest.raises(DomainError, match="metadata must be a string"):
            to_document(FIVE, metadata=metadata)

    @pytest.mark.parametrize("labels", [5, True, 1.5, object()])
    def test_labels_that_are_not_a_collection_are_refused(self, labels):
        with pytest.raises(DomainError, match="expected 5 labels, got 0"):
            to_document(FIVE, labels=labels)
        with pytest.raises(DomainError, match="expected 5 labels, got 0"):
            pretty_table(FIVE, labels)


# Masks repeat across the cells of the triple-sum table and are mostly
# distinct in the pair table, so the codec's decode-once table meets both.
CODEC_CASES = {"massouros64": massouros(gf(2, 6)), "pair40": pair_hyperfield(40)}


@pytest.mark.parametrize("name", CODEC_CASES)
class TestCellCodec:
    """Every cell the codec writes against a per-cell decode by cell()."""

    def test_document_cells_match(self, name):
        c = CODEC_CASES[name].candidate
        hyperadd = to_document(c).hyperadd
        for a in range(c.n):
            for b in range(c.n):
                assert hyperadd[a][b] == c.cell(a, b)

    def test_candidate_round_trip(self, name):
        c = CODEC_CASES[name].candidate
        assert candidate_from_document(to_document(c)) == c

    def test_pretty_table_cells_match(self, name):
        c = CODEC_CASES[name].candidate
        labels = default_labels(c.n)
        add_grid = pretty_table(c).split("\n\n")[0].split("\n")
        assert len(add_grid) == c.n + 1
        for a, line in enumerate(add_grid[1:]):
            label, *cells = [part.strip() for part in line.split(" | ")]
            assert label == labels[a]
            want = ["{" + ",".join(labels[w] for w in c.cell(a, b)) + "}" for b in range(c.n)]
            assert cells == want


class TestGoldenFiles:
    def test_five_element_golden_bytes(self, five_candidate):
        expected = doc_text(five_candidate, labels="01abc")
        assert (GOLDEN / "five_element.json").read_text(encoding="utf-8") == expected

    def test_order_two_krasner_golden_bytes(self):
        expected = doc_text(massouros(gf(2)).candidate, labels="01")
        assert (GOLDEN / "krasner_two.json").read_text(encoding="utf-8") == expected

    def test_goldens_parse_and_verify(self):
        for name in ("five_element.json", "krasner_two.json"):
            doc = parse_document((GOLDEN / name).read_text(encoding="utf-8"))
            assert verify(candidate_from_document(doc)).ok

    def test_krasner_two_cell(self):
        doc = parse_document((GOLDEN / "krasner_two.json").read_text(encoding="utf-8"))
        assert doc.hyperadd[1][1] == (0, 1)


def valid_raw():
    return doc_text(five_element_candidate())


class TestParserRejections:
    def test_malformed_text(self):
        with pytest.raises(ParseError) as err:
            parse_document("{ not json")
        assert err.value.code == "malformed"
        assert err.value.line == 1

    def test_malformed_types(self):
        with pytest.raises(ParseError):
            parse_document('{"version": true, "order": 2, "mul": [], "hyperadd": []}')
        with pytest.raises(ParseError):
            parse_document('[1, 2]')
        with pytest.raises(ParseError):
            parse_document('{"version": 1, "order": 2}')
        with pytest.raises(ParseError):
            parse_document('{"version": 1, "order": 2, "mul": [[0,0],[0,1]], '
                           '"hyperadd": [[[0],[1]],[[1],[0,1]]], "extra": 1}')

    def test_unsupported_version(self):
        text = valid_raw().replace('"version": 1', '"version": 2')
        with pytest.raises(ValidationError) as err:
            parse_document(text)
        assert err.value.code == "version"

    def test_wrong_dimensions(self):
        text = valid_raw().replace('"order": 5', '"order": 4')
        with pytest.raises(ValidationError) as err:
            parse_document(text)
        assert err.value.code == "dimensions"

    def test_out_of_range_index(self):
        text = valid_raw().replace("[[3], [0, 1, 2, 3, 4], [2, 3], [3], [3, 4]]",
                                   "[[3], [0, 1, 2, 3, 4], [2, 3], [3], [3, 9]]")
        with pytest.raises(ValidationError) as err:
            parse_document(text)
        assert err.value.code == "index-range"

    def test_empty_cell(self):
        text = valid_raw().replace("[[2], [1, 2], [2], [2, 3], [0, 1, 2, 3, 4]]",
                                   "[[2], [1, 2], [], [2, 3], [0, 1, 2, 3, 4]]")
        with pytest.raises(ValidationError) as err:
            parse_document(text)
        assert err.value.code == "empty-cell"

    def test_unsorted_cell(self):
        text = valid_raw().replace("[1, 2], [2], [2, 3]", "[2, 1], [2], [2, 3]")
        with pytest.raises(ValidationError) as err:
            parse_document(text)
        assert err.value.code == "cell-order"

    def test_zero_misplaced(self):
        text = valid_raw().replace("[[0], [1], [2], [3], [4]]",
                                   "[[0], [0, 1], [2], [3], [4]]")
        with pytest.raises(ValidationError) as err:
            parse_document(text)
        assert err.value.code == "identity-misplaced"

    def test_one_misplaced(self):
        text = valid_raw().replace("[0, 1, 2, 3, 4],\n", "[0, 1, 2, 4, 3],\n", 1)
        with pytest.raises(ValidationError) as err:
            parse_document(text)
        assert err.value.code == "identity-misplaced"

    @pytest.mark.parametrize("table, first, second, want", [
        ("mul", ((2, 3), 7), ((4, 1), True), ("index-range", "mul entry 7 at (2,3) out of range")),
        ("mul", ((2, 3), 1.5), ((4, 1), -1), ("malformed", "mul[2][3] must be an integer")),
        ("hyperadd", ((1, 2), [2, 1]), ((3, 0), []),
         ("cell-order", "cell at (1,2) must be strictly ascending")),
        ("hyperadd", ((2, 4), [0, 9]), ((3, 1), [1, 1]),
         ("index-range", "hyperadd entry 9 at (2,4) out of range")),
        ("hyperadd", ((2, 1), []), ((4, 3), "x"), ("empty-cell", "empty cell at (2,1)")),
        ("hyperadd", ((1, 3), [0, False]), ((2, 2), [5]),
         ("malformed", "hyperadd[1][3] must be an integer")),
    ])
    def test_earlier_of_two_errors_in_different_rows_is_reported(self, table, first, second, want):
        raw = json.loads(valid_raw())
        for (i, j), value in (first, second):
            raw[table][i][j] = value
        with pytest.raises(DocumentError) as err:
            parse_document(json.dumps(raw))
        assert (err.value.code, str(err.value)) == want

    def test_label_count_mismatch(self):
        text = valid_raw().replace('  "order": 5,', '  "order": 5,\n  "labels": ["0", "1"],')
        with pytest.raises(ValidationError) as err:
            parse_document(text)
        assert err.value.code == "dimensions"


def dumps_render(doc):
    """render_document() as written with one json.dumps() call per row,
    label list and metadata string."""
    def rows(table):
        return ",\n".join(f"    {json.dumps(list(row))}" for row in table)

    out = ["{", f'  "version": {doc.version},', f'  "order": {doc.order},']
    if doc.labels is not None:
        out.append(f'  "labels": {json.dumps(list(doc.labels))},')
    out += ['  "mul": [', rows(doc.mul), "  ],", '  "hyperadd": [', rows(doc.hyperadd)]
    if doc.metadata is None:
        out.append("  ]")
    else:
        out += ["  ],", f'  "metadata": {json.dumps(doc.metadata)}']
    return "\n".join(out + ["}"]) + "\n"


RENDERED = {
    **{f"order{n}": lambda n=n: hyperfield_of_order(n) for n in (2, 6, 29, 64)},
    "pair128": lambda: pair_hyperfield(128),
    "massouros128": lambda: massouros(gf(2, 7)),
}


@pytest.mark.parametrize("extras", ["bare", "labels", "metadata", "both"])
@pytest.mark.parametrize("name", RENDERED)
def test_render_document_writes_json_dumps_bytes(name, extras):
    """The one encoder of render_document() gives json.dumps()'s bytes,
    with and without labels and metadata, escapes included."""
    h = RENDERED[name]()
    labels = ("0", "1", *(f'e"{i}\\é' for i in range(2, h.n)))
    doc = to_document(h, labels=labels if extras in ("labels", "both") else None,
                      metadata='a "recipe"\n\\ é €' if extras in ("metadata", "both") else None)
    assert render_document(doc) == dumps_render(doc)


class TestPrettyTable:
    def test_five_element_matches_printed_layout(self, five_candidate):
        assert pretty_table(five_candidate, "01abc") == FIVE_TABLE_TEXT

    def test_default_labels_used(self, five_candidate):
        assert pretty_table(five_candidate) == FIVE_TABLE_TEXT

    def test_field_renders_singletons(self):
        text = pretty_table(from_field(gf(3)).candidate)
        add_grid = text.split("\n\n")[0]
        for cell in ("{0}", "{1}", "{a}"):
            assert cell in add_grid
        assert "{0," not in add_grid

    def test_order_two_krasner(self):
        text = pretty_table(massouros(gf(2)).candidate)
        assert "{0,1}" in text

    def test_label_mismatch_rejected(self, five_candidate):
        with pytest.raises(DomainError):
            pretty_table(five_candidate, ["0", "1"])
        with pytest.raises(DomainError):
            to_document(five_candidate, labels=["0", "1"])


class TestDefaultLabels:
    def test_letters_for_small_orders(self):
        assert default_labels(5) == ("0", "1", "a", "b", "c")
        assert default_labels(28)[-1] == "z"

    def test_indexed_beyond_letters(self):
        labels = default_labels(30)
        assert labels[:2] == ("0", "1")
        assert labels[2] == "e2" and labels[29] == "e29"


# A test-side reader that shares no code with io_format: json.loads, then one
# explicit loop per cell in the parser's documented order (mul before
# hyperadd, row by row, each element's type before its range, a cell's
# order after its elements, the identities last).  It returns (cells, masks)
# for a document whose top-level fields are valid, or the (error class,
# code, message) the parser must raise.

def oracle_read(text):
    raw = json.loads(text)
    n, mul = raw["order"], raw["mul"]
    for i in range(n):
        for j in range(n):
            v = mul[i][j]
            if type(v) is not int:
                return ("ParseError", "malformed", f"mul[{i}][{j}] must be an integer")
            if v < 0 or v >= n:
                return ("ValidationError", "index-range",
                        f"mul entry {v} at ({i},{j}) out of range")
    cells, masks = [], []
    for i in range(n):
        cell_row, mask_row = [], []
        for j in range(n):
            cell = raw["hyperadd"][i][j]
            if type(cell) is not list:
                return ("ParseError", "malformed",
                        f"hyperadd cell at ({i},{j}) must be an array")
            if len(cell) == 0:
                return ("ValidationError", "empty-cell", f"empty cell at ({i},{j})")
            for v in cell:
                if type(v) is not int:
                    return ("ParseError", "malformed", f"hyperadd[{i}][{j}] must be an integer")
                if v < 0 or v >= n:
                    return ("ValidationError", "index-range",
                            f"hyperadd entry {v} at ({i},{j}) out of range")
            for k in range(1, len(cell)):
                if cell[k - 1] >= cell[k]:
                    return ("ValidationError", "cell-order",
                            f"cell at ({i},{j}) must be strictly ascending")
            mask = 0
            for v in cell:
                mask += 2 ** v
            cell_row.append(tuple(cell))
            mask_row.append(mask)
        cells.append(tuple(cell_row))
        masks.append(tuple(mask_row))
    for y in range(n):
        if cells[0][y] != (y,):
            return ("ValidationError", "identity-misplaced",
                    f"zero must be index 0: hyperadd[0][{y}] != [{y}]")
        if mul[1][y] != y:
            return ("ValidationError", "identity-misplaced",
                    f"one must be index 1: mul[1][{y}] != {y}")
    return tuple(cells), tuple(masks)


def parser_read(text):
    """What parse_document and candidate_from_document make of text, in the
    oracle's terms."""
    try:
        doc = parse_document(text)
    except DocumentError as err:
        return (type(err).__name__, err.code, str(err))
    return doc.hyperadd, candidate_from_document(doc).hyperadd


def _quotient_of_order(n, p):
    """The Krasner quotient of GF(p) by its subgroup of index n - 1."""
    f = gf(p)
    size = (p - 1) // (n - 1)
    g = next(g for g in (subgroup_closure(f, [x]) for x in range(1, p))
             if len(g.closure) == size)
    return quotient(f, g)


ORACLE_SOURCES = {
    "pair8": lambda: pair_hyperfield(8),
    "pair27": lambda: pair_hyperfield(27),
    "pair64": lambda: pair_hyperfield(64),
    "massouros8": lambda: massouros(gf(2, 3)),
    "massouros25": lambda: massouros(gf(5, 2)),
    "massouros64": lambda: massouros(gf(2, 6)),
    "quotient8": lambda: _quotient_of_order(8, 29),
    "quotient17": lambda: _quotient_of_order(17, 97),
    "quotient64": lambda: _quotient_of_order(64, 127),
}


def _random_cells_text(seed, n):
    """A structurally valid order-n document (not a hyperfield) whose cells
    are random nonempty sets, with [3] next to [1, 2] in row 2."""
    rng = random.Random(seed)
    raw = json.loads(doc_text(pair_hyperfield(n).candidate))
    for i in range(1, n):
        for j in range(n):
            raw["hyperadd"][i][j] = sorted(rng.sample(range(n), rng.randint(1, n)))
    raw["hyperadd"][2][3:5] = [[3], [1, 2]]
    return json.dumps(raw)


class TestParseOracle:
    """parse_document and candidate_from_document against oracle_read."""

    @pytest.mark.parametrize("name", ["five_element.json", "krasner_two.json"])
    def test_golden_documents(self, name):
        text = (GOLDEN / name).read_text(encoding="utf-8")
        assert parser_read(text) == oracle_read(text)

    @pytest.mark.parametrize("name", ORACLE_SOURCES)
    def test_constructed_documents(self, name):
        text = doc_text(ORACLE_SOURCES[name]().candidate)
        want = oracle_read(text)
        assert len(want) == 2, want
        assert parser_read(text) == want

    @pytest.mark.parametrize("seed, n", [(1, 5), (2, 8), (3, 16), (4, 33)])
    def test_random_valid_cells(self, seed, n):
        text = _random_cells_text(seed, n)
        want = oracle_read(text)
        assert len(want) == 2, want
        assert want[0][2][3:5] == ((3,), (1, 2))
        assert parser_read(text) == want

    @staticmethod
    def faults(n):
        return [[], [2, 1], [1, 1], [0, n], [-1], [True], [1.0], [[1]], {}, "x"]

    @pytest.mark.parametrize("name", ["pair8", "massouros25", "quotient17"])
    def test_one_fault(self, name):
        base = json.loads(doc_text(ORACLE_SOURCES[name]().candidate))
        n = base["order"]
        rng = random.Random(name)
        for fault in self.faults(n):
            for _ in range(4):
                raw = json.loads(json.dumps(base))
                i, j = rng.randrange(n), rng.randrange(n)
                raw["hyperadd"][i][j] = fault
                text = json.dumps(raw)
                want = oracle_read(text)
                assert len(want) == 3, (fault, i, j)
                assert parser_read(text) == want, (fault, i, j)

    @pytest.mark.parametrize("name", ["pair8", "massouros25", "quotient17"])
    def test_two_faults_report_the_earlier(self, name):
        base = json.loads(doc_text(ORACLE_SOURCES[name]().candidate))
        n = base["order"]
        rng = random.Random(name)
        faults = self.faults(n)
        for first in faults:
            for second in faults:
                raw = json.loads(json.dumps(base))
                i, k = sorted(rng.sample(range(n), 2))
                j, m = rng.randrange(n), rng.randrange(n)
                raw["hyperadd"][i][j] = first
                raw["hyperadd"][k][m] = second
                text = json.dumps(raw)
                got = parser_read(text)
                assert got == oracle_read(text), (first, (i, j), second, (k, m))
                assert f"({i},{j})" in got[2] or f"[{i}][{j}]" in got[2]

    def test_two_faults_in_one_row(self):
        base = json.loads(doc_text(massouros(gf(2, 3)).candidate))
        for first, second in [([2, 1], []), ([1, 1], [-1]), ([True], [0, 8]),
                              ({}, [1.0]), ([[1]], "x")]:
            raw = json.loads(json.dumps(base))
            raw["hyperadd"][5][6], raw["hyperadd"][5][2] = first, second
            text = json.dumps(raw)
            got = parser_read(text)
            assert got == oracle_read(text)
            assert "(5,2)" in got[2] or "[5][2]" in got[2]


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000,
                                  '{"version": 1, "order": ' + "9" * 5000 + "}",
                                  1.0, None, [], {}, 5, object()])
def test_undecodable_json_is_a_parse_error(text):
    """Too deep, too many digits, or not str, bytes or bytearray at all."""
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert err.value.code == "malformed"
    assert str(err.value).startswith("cannot decode: ")


def test_bytes_and_bytearray_parse_as_text():
    text = valid_raw()
    want = parse_document(text)
    assert parse_document(text.encode()) == parse_document(bytearray(text.encode())) == want
