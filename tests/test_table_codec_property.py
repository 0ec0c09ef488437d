"""Property test: ``read_table`` reads what the per-line reference reads.

Tables of ints, ``repr`` and ``%.12g`` floats, signed zeros, subnormals,
+-1e308, NaN and +-inf, with padded tokens, blank lines, CRLF or CR line
ends, no final newline, ragged tails, and now and then a token or a column
count that must be rejected. Values must equal bit for bit and line numbers
must equal. A token only ``float`` reads (``1_0``, non-ASCII digits) may
instead be rejected, naming its line, but never read as another value.
"""

import re

from hypothesis import HealthCheck, given, settings, strategies as st

from fluidswarm import FieldFormatError
from fluidswarm.reference_field import read_table
from test_table_codec import assert_reads_like_the_reference, per_line_read_table

SPECIAL = ["0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "2.5e-320",
           "2.2250738585072014e-308", "2.225073858507201e-308", "1e308",
           "-1e308", "1.7976931348623157e308", "1e309", "-1e400", "nan",
           "-nan", "NaN", "inf", "-inf", "+inf", "Infinity", "-INFINITY",
           ".5", "5.", "+1", "1E5", "007"]
FLOAT_ONLY = ["1_0", "1_000.5", "٣", "١٢.5"]
BAD = ["abc", "", "1.5.3", "1e", "--1", "0x10", "1 2", "nan1", "#1"]
PAD = st.sampled_from(["", " ", "\t", "  "])

number = st.one_of(
    st.integers(-10**18, 10**18).map(str),
    st.floats().map(repr),
    st.floats().map(lambda x: "%.12g" % x),
    st.sampled_from(SPECIAL),
)
token = st.tuples(PAD, number, PAD).map("".join)


@st.composite
def tables(draw):
    ragged = draw(st.booleans())
    header = "n,v,..." if ragged else "x,y,z"
    widths = st.integers(2, 6) if ragged else st.just(3)
    rows = draw(st.lists(widths.flatmap(lambda w: st.lists(token, min_size=w,
                                                           max_size=w)),
                         min_size=0, max_size=12))
    if rows and draw(st.booleans()):            # one odd token
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(st.sampled_from(FLOAT_ONLY + BAD))
    if rows and draw(st.integers(0, 4)) == 0:   # one row of another width
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    lines = [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):    # blank lines
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", " ", "\t", " \t "])))
    head = [header]
    meta = draw(st.sampled_from(["none", "right", "wrong"]))
    if meta != "none":
        cells = len(rows) + (meta == "wrong")
        head.insert(0, f"# cells={cells} k=1.5 tag=1e3")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(head + lines)
    if draw(st.booleans()):
        text += end
    return header, text


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables())
def test_read_table_reads_what_the_per_line_reader_reads(tmp_path, table):
    header, text = table
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    only = next((i for i, row in enumerate(lines, 1)
                 if any(t in row for t in FLOAT_ONLY)), None)
    try:
        read_table(path, header)
    except FieldFormatError as exc:
        if str(exc).startswith(f"{path}:{only}: could not convert string to float: "):
            # rejected on the first line holding a token only float reads;
            # the reference reads that line and fails later or not at all
            try:
                per_line_read_table(path, header)
            except FieldFormatError as ref:
                named = re.match(rf"{re.escape(str(path))}:(\d+):", str(ref))
                assert named is None or int(named[1]) > only
            return
    assert_reads_like_the_reference(path, header)


def test_the_strategy_reaches_every_outcome(tmp_path):
    """The property above sees accepted tables, rejected ones, and tables
    only ``float`` reads."""
    seen = set()

    # one fixed draw sequence: a reachability witness, not a sample that
    # misses the rarest outcome now and then
    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tables())
    def classify(table):
        header, text = table
        path = tmp_path / "c.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            per_line_read_table(path, header)
        except FieldFormatError:
            seen.add("rejected")
            return
        try:
            read_table(path, header)
            seen.add("accepted")
        except FieldFormatError:
            seen.add("float only")

    classify()
    assert seen == {"accepted", "rejected", "float only"}
