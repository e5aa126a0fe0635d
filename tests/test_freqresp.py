import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pzid.freqresp import (FrequencyGrid, FrequencyResponseSet, PortLabel,
                           ProbeSpec, ResponseParseError, current_probe,
                           emit_csv, merge_sets, modal_probe, parse_csv,
                           parse_probe, parse_touchstone, slice_band,
                           voltage_probe)


def make_set(freqs, **ports):
    grid = FrequencyGrid(np.asarray(freqs, dtype=float))
    labels = tuple(PortLabel(n) for n in ports)
    values = tuple(np.asarray(v, dtype=complex) for v in ports.values())
    return FrequencyResponseSet(grid, labels, values)


class TestFrequencyGrid:
    def test_requires_four_points(self):
        with pytest.raises(ValueError, match="at least 4"):
            FrequencyGrid(np.array([1.0, 2.0, 3.0]))

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            FrequencyGrid(np.array([1.0, 2.0, 2.0, 3.0]))

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([-1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([1.0, 2.0, np.inf, 4.0]))

    def test_omega(self):
        g = FrequencyGrid(np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.allclose(g.omega, 2 * np.pi * g.freqs_hz)

    def test_caller_array_stays_writable(self):
        a = np.linspace(1e9, 4e9, 4)
        g = FrequencyGrid(a)
        assert a.flags.writeable
        assert g.freqs_hz is not a and not g.freqs_hz.flags.writeable
        a[0] = 0.5e9
        assert g.freqs_hz[0] == 1e9


class TestParseCsv:
    def test_single_sample_mapping(self):
        text = "freq_hz,p1_re,p1_im\n1e9,0.5,-0.1\n2e9,0.4,0.0\n3e9,0.3,0.1\n4e9,0.2,0.2\n"
        rset = parse_csv(text)
        assert rset.port_names == ("p1",)
        assert rset.values[0][0] == 0.5 - 0.1j
        assert rset.grid.freqs_hz[0] == 1e9
        assert rset.ports[0].kind == "transfer"

    def test_duplicate_frequency_reports_line(self):
        text = "freq_hz,p1_re,p1_im\n1e9,1,0\n1e9,1,0\n3e9,1,0\n4e9,1,0\n"
        with pytest.raises(ResponseParseError, match="non-monotone grid at line 3"):
            parse_csv(text)

    def test_too_few_rows(self):
        text = "freq_hz,p1_re,p1_im\n1e9,1,0\n2e9,1,0\n3e9,1,0\n"
        with pytest.raises(ResponseParseError, match="fewer than 4"):
            parse_csv(text)

    def test_ragged_row_reports_line(self):
        text = "freq_hz,p1_re,p1_im\n1e9,1,0\n2e9,1\n3e9,1,0\n4e9,1,0\n"
        with pytest.raises(ResponseParseError, match=r"ragged row.* at line 3"):
            parse_csv(text)

    def test_unparseable_number_reports_line(self):
        text = "freq_hz,p1_re,p1_im\n1e9,1,0\n2e9,xyz,0\n3e9,1,0\n4e9,1,0\n"
        with pytest.raises(ResponseParseError, match="'xyz' at line 3"):
            parse_csv(text)

    def test_kind_directive(self):
        text = ("# kind: p1=impedance\n"
                "freq_hz,p1_re,p1_im\n1e9,1,0\n2e9,1,0\n3e9,1,0\n4e9,1,0\n")
        assert parse_csv(text).ports[0].kind == "impedance"

    def test_unknown_kind_in_directive(self):
        text = ("# kind: p1=capacitance\n"
                "freq_hz,p1_re,p1_im\n1e9,1,0\n2e9,1,0\n3e9,1,0\n4e9,1,0\n")
        with pytest.raises(ResponseParseError, match="unknown response kind 'capacitance'"):
            parse_csv(text)

    def test_excitation_directive_for_unknown_port(self):
        text = ("# excitation: p1=inode:n1,q=inode:n2\n"
                "freq_hz,p1_re,p1_im\n1e9,1,0\n2e9,1,0\n3e9,1,0\n4e9,1,0\n")
        with pytest.raises(ResponseParseError, match="excitation directive for unknown port 'q'"):
            parse_csv(text)

    def test_crlf_line_endings(self):
        text = "freq_hz,p1_re,p1_im\r\n1e9,1,0\r\n2e9,1,0\r\n3e9,1,0\r\n4e9,1,0\r\n"
        rset = parse_csv(text)
        assert len(rset.grid) == 4 and rset.values[0][0] == 1.0


class TestCsvRoundTrip:
    def test_bit_identical(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(4, 30))
            freqs = np.sort(rng.uniform(1e6, 1e10, n))
            while np.any(np.diff(freqs) <= 0):
                freqs = np.sort(rng.uniform(1e6, 1e10, n))
            a = rng.standard_normal(n) * 10 ** rng.uniform(-8, 8)
            b = rng.standard_normal(n) * 10 ** rng.uniform(-8, 8)
            rset = FrequencyResponseSet(
                FrequencyGrid(freqs),
                (PortLabel("z1", "inode:n1", "impedance"), PortLabel("t2")),
                (a + 1j * b, b + 1j * a))
            again = parse_csv(emit_csv(rset))
            assert again == rset
            assert parse_csv(emit_csv(again)) == again

    def test_modal_excitation(self):
        rset = make_set([1e9, 2e9, 3e9, 4e9], p1=[1, 2j, 3, 4])
        rset = FrequencyResponseSet(rset.grid, (PortLabel("modal:a@0;b@180",
                                                          "modal:a@0,b@180"),),
                                    rset.values)
        assert parse_csv(emit_csv(rset)) == rset

    def test_comma_in_port_name_rejected(self):
        with pytest.raises(ValueError, match="','"):
            emit_csv(make_set([1e9, 2e9, 3e9, 4e9], **{"a,b": [1, 2, 3, 4]}))

    @pytest.mark.parametrize("name", [" p", "p ", "a\nb", "a\tb"])
    def test_port_name_the_csv_cannot_carry_rejected(self, name):
        with pytest.raises(ValueError, match="port name"):
            PortLabel(name)

    def test_bad_header_name_reports_line(self):
        text = "# kind: a=impedance\nfreq_hz,a=b_re,a=b_im\n1,0,0\n2,0,0\n3,0,0\n4,0,0\n"
        with pytest.raises(ResponseParseError, match="'=' at line 2"):
            parse_csv(text)

    def test_equals_in_port_name_rejected(self):
        # "# kind: a=b=impedance" would not parse back
        with pytest.raises(ValueError, match="'='"):
            PortLabel("a=b", kind="impedance")


class TestTouchstone:
    def test_ri_one_port(self):
        text = "# GHz S RI R 50\n1.0 0.5 -0.1\n2.0 0.4 0.0\n3.0 0.3 0.1\n4.0 0.2 0.2\n"
        rset = parse_touchstone(text)
        assert rset.values[0][0] == 0.5 - 0.1j
        assert rset.grid.freqs_hz[0] == 1e9
        assert rset.ports[0].kind == "transfer"

    def test_ma_polar_conversion(self):
        text = "# MHz S MA R 50\n100 1.0 90\n200 1.0 0\n300 1.0 0\n400 1.0 0\n"
        rset = parse_touchstone(text)
        assert rset.grid.freqs_hz[0] == 1e8
        assert abs(rset.values[0][0] - 1j) < 1e-12

    def test_db_conversion(self):
        text = "# Hz S DB R 50\n1 20 0\n2 20 0\n3 20 0\n4 20 0\n"
        assert abs(parse_touchstone(text).values[0][0] - 10.0) < 1e-12

    def test_two_port_ordering(self):
        rows = "\n".join(f"{f} 0.1 0 0.2 0 0.3 0 0.4 0" for f in (1, 2, 3, 4))
        rset = parse_touchstone("# GHz S RI R 50\n" + rows + "\n")
        assert rset.port_names == ("s11", "s21", "s12", "s22")
        assert rset.values[1][0] == 0.2

    def test_rejects_y_parameters(self):
        with pytest.raises(ResponseParseError, match="unsupported parameter type Y"):
            parse_touchstone("# GHz Y RI R 50\n1 0 0\n2 0 0\n3 0 0\n4 0 0\n")

    def test_missing_option_line(self):
        with pytest.raises(ResponseParseError, match="option line"):
            parse_touchstone("1 0 0\n2 0 0\n3 0 0\n4 0 0\n")


TS_HEAD = "# GHz S RI R 50\n"
OVERFLOW = "overflow scaling to Hz or converting from dB"
TS_ROWS = "1 0.5 -0.1\n2 0.4 0\n3 0.3 0.1\n4 0.2 0.2\n"
CSV_HEAD = "freq_hz,p_re,p_im\n"
CSV_ROWS = "1,1,0\n2,1,0\n3,1,0\n4,1,0\n"


class TestReaderErrors:
    """Each error either reader raises, with its message and line; a file
    holding several errors reports the one on the earliest line."""

    @pytest.mark.parametrize("parse, text, message, line", [
        (parse_touchstone, "# THz S RI R 50\n" + TS_ROWS,
         "unknown frequency unit 'thz'", 1),
        (parse_touchstone, "! comment\n# GHz Z RI R 50\n" + TS_ROWS,
         "unsupported parameter type Z", 2),
        (parse_touchstone, "# GHz S XY R 50\n" + TS_ROWS, "unknown format 'xy'", 1),
        (parse_touchstone, TS_HEAD + "1 0.5 -0.1\n2 0.4 x\n3 0 0\n4 0 0\n",
         "unparseable number in '2 0.4 x'", 3),
        (parse_touchstone, "! no option line, no data\n", "missing option line", None),
        (parse_touchstone, "1 0 0\n# GHz S RI R 50\n" + TS_ROWS,
         "data before option line (missing option line?)", 1),
        (parse_touchstone, TS_HEAD + "! only comments\n", "no data rows", None),
        (parse_touchstone, TS_HEAD + "1 0 0 0 0\n2 0 0 0 0\n3 0 0 0 0\n4 0 0 0 0\n",
         "unsupported row layout (5 values; expected 3 for 1-port or 9 for 2-port)", 2),
        (parse_touchstone, TS_HEAD + "1 0 0\n2 0 0\n3 0\n4 0 0\n",
         "ragged row: expected 3 values, got 2", 4),
        (parse_touchstone, TS_HEAD + "1 0 0\n3 0 0\n2 0 0\n4 0 0\n", "non-monotone grid", 4),
        (parse_touchstone, TS_HEAD + "1 0 0\n2 0 0\n3 0 0\n", "fewer than 4 points", None),
        # several errors: the earliest line wins (a second option line is ignored)
        (parse_touchstone, "# HZ S RI R 50\n1 0 0\n3 0 0\n2 0 0\n4 0 0\n5 x 0\n",
         "non-monotone grid", 4),
        (parse_touchstone, TS_HEAD + "1 0 0\n3 0 0\n2 0 0\n4 0\n", "non-monotone grid", 4),
        (parse_touchstone, TS_HEAD + "1 0 0\n3 0\n2 0 0\n4 x 0\n",
         "ragged row: expected 3 values, got 2", 3),
        (parse_touchstone, TS_HEAD + "1 0 0\n2 x 0\n1 0 0\n4 0\n",
         "unparseable number in '2 x 0'", 3),
        (parse_touchstone, TS_HEAD + "2 0 0\n1 0 0\n# GHz Y RI R 50\n", "non-monotone grid", 3),
        (parse_csv, "p_re,p_im\n" + CSV_ROWS, "header must start with freq_hz", 1),
        (parse_csv, "# comment\nfreq_hz\n" + CSV_ROWS,
         "header needs <port>_re,<port>_im column pairs", 2),
        (parse_csv, "freq_hz,p_re,p_im,q_re\n" + CSV_ROWS,
         "header needs <port>_re,<port>_im column pairs", 1),
        (parse_csv, "freq_hz,p_re,p_imag\n" + CSV_ROWS,
         "column pair 'p_re','p_imag' must end in _re,_im", 1),
        (parse_csv, "freq_hz,p_re,q_im\n" + CSV_ROWS,
         "column pair 'p_re','q_im' names disagree", 1),
        (parse_csv, "# only a comment\n", "no header row found", None),
        (parse_csv, "# kind: impedance\n" + CSV_HEAD + CSV_ROWS,
         "malformed kind directive entry 'impedance'", 1),
        (parse_csv, CSV_HEAD + "1,1,0\n3,1,0\n2,1,0\n4,1\n", "non-monotone grid", 4),
        # a nan or inf is refused at its own line, the earliest error first
        (parse_csv, CSV_HEAD + "1,0,0\nnan,0,0\n3,0,0\n4,0,0\n", "non-finite number 'nan'", 3),
        (parse_csv, CSV_HEAD + "1,1,0\n2,1,0\n3, inf,0\n4,1,0\n",
         "non-finite number 'inf'", 4),
        (parse_csv, CSV_HEAD + "1,1,0\n2,1,-Infinity\n3,1,0\n4,1,0\n",
         "non-finite number '-Infinity'", 3),
        (parse_csv, CSV_HEAD + "1,1,0\n3,1,0\n2,1,0\n4,nan,0\n", "non-monotone grid", 4),
        (parse_csv, CSV_HEAD + "1,1,0\n2,NaN,0\n1,1,0\n4,x,0\n", "non-finite number 'NaN'", 3),
        (parse_csv, "# kind: p=impedance\n" + CSV_HEAD + "1,1,0\n2,1,0\n3,1,0\n4,1,inf\n"
         "# kind: q\n", "non-finite number 'inf'", 6),
        (parse_touchstone, TS_HEAD + "1 0.5 -0.1\n2 nan 0\n3 0 0\n4 0 0\n",
         "non-finite number 'nan'", 3),
        (parse_touchstone, TS_HEAD + "1 0 0\n2 0 0\n3 0 0\ninf 0 0 ! far\n",
         "non-finite number 'inf'", 5),
        (parse_touchstone, TS_HEAD + "1 0 0\n2 0\n3 0 inf\n4 0 0\n",
         "ragged row: expected 3 values, got 2", 3),
        (parse_touchstone, TS_HEAD + "1 0 0\n2 0 -inf\n3 0\n4 0 0\n",
         "non-finite number '-inf'", 3),
        # a value that overflows when scaled to Hz or converted from dB is
        # refused at its line, without a numpy warning; a dB magnitude of -inf
        # would convert to 0 but is refused as read
        (parse_touchstone, TS_HEAD + "1 0 0\n1e300 0 0\n3 0 0\n4 0 0\n", OVERFLOW, 3),
        (parse_touchstone, "# GHz S DB\n1 0 0\n2 1e4 0\n3 0 0\n4 0 0\n", OVERFLOW, 3),
        (parse_touchstone, "# GHz S DB\n1 0 0\n2 0 90\n3 1e4 90\n4 0 0\n", OVERFLOW, 4),
        (parse_touchstone, "# MHz S DB\n1 0 0 0 0 0 0 0 0\n2 0 0 0 0 0 0 0 0\n"
         "3 0 0 0 0 7e3 45 0 0\n4 0 0 0 0 0 0 0 0\n", OVERFLOW, 4),
        (parse_touchstone, "# GHz S DB\n1 0 0\n2 -inf 0\n3 0 0\n4 0 0\n",
         "non-finite number '-inf'", 3),
        (parse_touchstone, "# GHz S DB\n1 0 0\n0.5 0 0\n3 1e4 0\n4 0 0\n",
         "non-monotone grid", 3),
        (parse_touchstone, "# GHz S DB\n1 0 0\n2 1e4 0\n1 0 0\n4 x 0\n", OVERFLOW, 3),
        (parse_touchstone, "# GHz S MA\n1 0 0\n2 1e4 0\n3 0 0\n4e300 0 0\n", OVERFLOW, 5),
        # a negative frequency is refused at its line, named as written
        (parse_csv, CSV_HEAD + "-1,0,0\n1,0,0\n2,0,0\n3,0,0\n", "negative frequency '-1'", 2),
        (parse_csv, CSV_HEAD + "1,1,0\n -2.5 ,1,0\n3,1,0\n4,1,0\n",
         "negative frequency '-2.5'", 3),
        (parse_csv, CSV_HEAD + "1,x,0\n-2,1,0\n3,1,0\n4,1,0\n", "unparseable number 'x'", 2),
        (parse_csv, CSV_HEAD + "-1,1,0\n2,1,0\n1,1,0\n4,1,0\n", "negative frequency '-1'", 2),
        (parse_touchstone, "# Hz S RI\n-1 0 0\n1 0 0\n2 0 0\n3 0 0\n",
         "negative frequency '-1'", 2),
        (parse_touchstone, TS_HEAD + "1 0 0\n2 0 0\n-3e-9 0 0 ! far\n4 0 0\n",
         "negative frequency '-3e-9'", 4),
        (parse_touchstone, TS_HEAD + "1 0 0\n2 0\n-3 0 0\n4 0 0\n",
         "ragged row: expected 3 values, got 2", 3),
        (parse_touchstone, TS_HEAD + "-1\t0 0\n2 0 0\n1 0 0\n4 0 0\n",
         "negative frequency '-1'", 2),
    ])
    def test_message_and_line(self, parse, text, message, line):
        with pytest.raises(ResponseParseError) as info:
            parse(text)
        assert info.value.line == line
        assert str(info.value) == (message if line is None else f"{message} at line {line}")

    @pytest.mark.parametrize("parse, text", [
        (parse_csv, CSV_HEAD + "0,1,0\n1,1,0\n2,1,0\n3,1,0\n"),
        (parse_csv, CSV_HEAD + "-0.0,1,0\n1,1,0\n2,1,0\n3,1,0\n"),
        (parse_touchstone, TS_HEAD + "0 0 0\n1 0 0\n2 0 0\n3 0 0\n"),
        (parse_touchstone, TS_HEAD + "-0.0 0 0\n1 0 0\n2 0 0\n3 0 0\n"),
    ])
    def test_zero_frequency_is_accepted(self, parse, text):
        assert parse(text).grid.freqs_hz[0] == 0.0


ROWS_RE_IM = [(1.0, 0.5, -0.1), (2.0, 0.4, -0.0), (3.0, 0.3, 0.1), (4.0, 0.2, 0.2)]
CSV_BODY = [",".join(map(repr, row)) for row in ROWS_RE_IM]
TS_BODY = [" ".join(map(repr, row)) for row in ROWS_RE_IM]
ONE_PORT = np.array([[complex(re, im) for _, re, im in ROWS_RE_IM]])


class TestBulkConversion:
    """Layouts where a whole-table conversion could read a file differently
    from one number at a time: each reads the same bits, or fails with the
    same message and line, and no numpy warning escapes (warnings are
    errors under pytest)."""

    @pytest.mark.parametrize("parse, text, scale, kind", [
        (parse_csv, CSV_HEAD + "\n".join(CSV_BODY[:2]) + "\n\n \t \n"
         + "\n".join(CSV_BODY[2:]) + "\n   \n", 1.0, "transfer"),
        (parse_csv, CSV_HEAD + CSV_BODY[0] + "\n# a comment\n" + CSV_BODY[1]
         + "\n# kind: p=impedance\n" + "\n".join(CSV_BODY[2:]) + "\n", 1.0, "impedance"),
        (parse_csv, CSV_HEAD.replace("\n", "\r\n") + "\r\n".join(CSV_BODY), 1.0, "transfer"),
        (parse_csv, "freq_hz, p_re ,p_im\n" + "\n".join(
            " , ".join(map(repr, row)) for row in ROWS_RE_IM) + "\n", 1.0, "transfer"),
        (parse_touchstone, TS_HEAD + TS_BODY[0] + " ! first row\n" + TS_BODY[1] + "!x\n"
         + TS_BODY[2] + "\n  ! whole-line comment\n" + TS_BODY[3] + " !\n", 1e9, "transfer"),
        (parse_touchstone, TS_HEAD + "".join(
            "\t".join(map(repr, row)) + "\n" for row in ROWS_RE_IM), 1e9, "transfer"),
        (parse_touchstone, TS_HEAD.replace("\n", "\r\n") + "\r\n\r\n".join(TS_BODY),
         1e9, "transfer"),
    ])
    def test_layout_reads_the_same_bits(self, parse, text, scale, kind):
        rset = parse(text)
        assert same_bits(rset.grid.freqs_hz, np.array([1.0, 2.0, 3.0, 4.0]) * scale)
        assert same_bits(rset.values, ONE_PORT)
        assert rset.ports[0].kind == kind

    @pytest.mark.parametrize("parse, text, message, line", [
        (parse_csv, CSV_HEAD + "1,1,0\n2,1,0 # note\n3,1,0\n4,1,0\n",
         "unparseable number '0 # note'", 3),
        (parse_csv, CSV_HEAD + "1,1,0\n2,,0\n3,1,0\n4,1,0\n", "unparseable number ''", 3),
        (parse_csv, CSV_HEAD + "1,1,0\n2, ,0\n3,1,0\n4,1,0\n", "unparseable number ''", 3),
        (parse_csv, CSV_HEAD + "1,1,0\n2,1,0,\n3,1,0\n4,1,0\n",
         "ragged row: expected 3 fields, got 4", 3),
        (parse_csv, CSV_HEAD + "1,1,0\n2,1,0\n3,1\n4,x,0\n",
         "ragged row: expected 3 fields, got 2", 4),
        # float("1_000") is 1000.0, but the readers take no Python literal syntax
        (parse_csv, CSV_HEAD + "1,1,0\n1_000,1,0\n3,1,0\n4,1,0\n",
         "unparseable number '1_000'", 3),
        (parse_touchstone, TS_HEAD + "1 0 0\n1_000 0 0 ! c\n3 0 0\n4 0 0\n",
         "unparseable number in '1_000 0 0'", 3),
        (parse_touchstone, TS_HEAD + "1 0 0\n2 0 0 # c\n3 0 0\n4 0 0\n",
         "unparseable number in '2 0 0 # c'", 3),
        (parse_csv, CSV_HEAD, "fewer than 4 points", None),
        (parse_csv, "# kind: p=impedance\n" + CSV_HEAD + "\n \n", "fewer than 4 points", None),
        (parse_touchstone, TS_HEAD, "no data rows", None),
        (parse_touchstone, TS_HEAD + "\n \t\n! c\n", "no data rows", None),
        # a malformed directive below the rows loses to a bad row above it,
        # and wins over one below it
        (parse_csv, CSV_HEAD + "1,1,0\n2,x,0\n# kind: p\n3,1,0\n4,1,0\n",
         "unparseable number 'x'", 3),
        (parse_csv, CSV_HEAD + "1,1,0\n3,1,0\n# kind: p\n2,1,0\n4,1\n",
         "malformed kind directive entry 'p'", 4),
        (parse_csv, CSV_HEAD + "2,1,0\n1,1,0\n# kind: p\n3,1,0\n4,1,0\n",
         "non-monotone grid", 3),
        (parse_csv, "# kind: p\np_re,p_im\n" + CSV_ROWS, "malformed kind directive entry 'p'", 1),
        (parse_csv, "p_re,p_im\n# kind: p\n" + CSV_ROWS, "header must start with freq_hz", 1),
    ])
    def test_message_and_line(self, parse, text, message, line):
        with pytest.raises(ResponseParseError) as info:
            parse(text)
        assert info.value.line == line
        assert str(info.value) == (message if line is None else f"{message} at line {line}")

    def test_numbers_read_as_float_reads_them(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2**64, 3000, dtype=np.uint64).view(float)
        bits = bits[np.isfinite(bits)].tolist()
        tokens = [f"{x!r}" for x in bits] + [f"{x:.16e}" for x in bits] + [
            f"{x:.25e}" for x in bits] + [f"{x!r}" for x in (5e-324, -2.2250738585072e-308)] + [
            "1e-400", "-1e-400", "-0.0", "+0", "  .5e+3 ", "1.7976931348623157e308"]
        tokens += ["0"] * (len(tokens) % 2)
        rows = [f"{i + 1},{re},{im}" for i, (re, im) in enumerate(zip(tokens[0::2],
                                                                      tokens[1::2]))]
        rset = parse_csv(CSV_HEAD + "\n".join(rows) + "\n")
        expect = np.array([complex(float(re), float(im))
                           for re, im in zip(tokens[0::2], tokens[1::2])])
        assert same_bits(rset.values[0], expect)
        line = " ".join(tokens[:8])
        ts = parse_touchstone("# Hz S RI\n" + "".join(f"{i} {line}\n" for i in range(1, 5)))
        assert same_bits(ts.values[:, 0], np.array(
            [complex(float(a), float(b)) for a, b in zip(tokens[:8:2], tokens[1:8:2])]))

    def test_rows_are_rescanned_only_after_a_failure(self, monkeypatch):
        import pzid.freqresp as freqresp

        def rescan(*args):
            raise AssertionError("a file that parses was rescanned row by row")
        monkeypatch.setattr(freqresp, "_raise_first_row_error", rescan)
        parse_csv("# kind: p=impedance\n" + CSV_HEAD + "\n".join(CSV_BODY) + "\n\n")
        parse_touchstone(TS_HEAD + "\n".join(TS_BODY) + "\n! end\n")
        with pytest.raises(ResponseParseError, match="non-monotone grid at line 3"):
            parse_csv(CSV_HEAD + "1,1,0\n1,1,0\n3,1,0\n4,1,0\n")


def reference_touchstone(text):
    """Per-value reading of a Touchstone file without comments, the
    conversion written out one complex sample at a time."""
    head, *rows = text.splitlines()
    unit, _, fmt = head[1:].split()[:3]
    scale = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}[unit]
    freqs, samples = [], []
    for row in rows:
        nums = [float(tok) for tok in row.split()]
        freqs.append(nums[0] * scale)
        pairs = zip(nums[1::2], nums[2::2])
        if fmt == "RI":
            samples.append([complex(a, b) for a, b in pairs])
        elif fmt == "MA":
            samples.append([a * np.exp(1j * np.deg2rad(b)) for a, b in pairs])
        else:
            samples.append([10.0 ** (a / 20.0) * np.exp(1j * np.deg2rad(b)) for a, b in pairs])
    return np.array(freqs), np.array(samples, dtype=complex).T


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestCrossFormat:
    """A table of numbers written as RI, MA or DB Touchstone reads back bit for
    bit as the per-value reference converts it, and again through the CSV,
    signed zeros and a 0 Hz row included."""

    @pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
    @pytest.mark.parametrize("n_values", [3, 9])
    def test_formats_read_back_bit_for_bit(self, fmt, n_values):
        rng = np.random.default_rng(n_values)
        n = 12
        table = rng.standard_normal((n, n_values)) * 10.0 ** rng.uniform(-6, 3, (n, n_values))
        table[:, 0] = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 2.0, n - 1))))
        table[1, 1:3] = (0.25, -0.0)
        table[2, 1:3] = (-0.0, -0.0)
        table[3, 1:3] = (0.0, 180.0)
        table[4, 1:3] = (-0.0, -90.0)
        text = f"# GHz S {fmt} R 50\n" + "".join(
            " ".join(map(repr, row)) + "\n" for row in table.tolist())
        freqs, values = reference_touchstone(text)
        rset = parse_touchstone(text)
        assert same_bits(rset.grid.freqs_hz, freqs)
        assert same_bits(rset.values, values)
        assert rset.grid.freqs_hz[0] == 0.0
        again = parse_csv(emit_csv(rset))
        assert same_bits(again.grid.freqs_hz, freqs)
        assert same_bits(again.values, values)
        if fmt == "RI":
            assert np.signbit(rset.values[0, 1].imag) and np.signbit(rset.values[0, 2].real)


class TestSliceBand:
    def setup_method(self):
        self.rset = make_set(np.arange(1, 11) * 1e9, p1=np.arange(10) + 1j)

    def test_interval_selection(self):
        sub = slice_band(self.rset, 3e9, 7e9)
        assert len(sub.grid) == 5
        assert sub.grid.freqs_hz[0] == 3e9 and sub.grid.freqs_hz[-1] == 7e9

    def test_full_band_is_identity(self):
        assert slice_band(self.rset, 1e9, 10e9) == self.rset

    def test_too_narrow(self):
        with pytest.raises(ValueError, match="grid points"):
            slice_band(self.rset, 7.5e9, 9.5e9)

    def test_idempotent(self):
        once = slice_band(self.rset, 2e9, 8e9)
        assert slice_band(once, 2e9, 8e9) == once

    def test_partition_conserves_samples(self):
        left = slice_band(self.rset, 1e9, 5e9)
        right = slice_band(self.rset, 6e9, 10e9)
        assert len(left.grid) + len(right.grid) == len(self.rset.grid)


class TestMergeAndValidation:
    def test_merge_requires_shared_grid(self):
        a = make_set([1e9, 2e9, 3e9, 4e9], p1=[1, 2, 3, 4])
        b = make_set([1e9, 2e9, 3e9, 5e9], p2=[1, 2, 3, 4])
        with pytest.raises(ValueError, match="share"):
            merge_sets([a, b])

    def test_merge(self):
        a = make_set([1e9, 2e9, 3e9, 4e9], p1=[1, 2, 3, 4])
        b = make_set([1e9, 2e9, 3e9, 4e9], p2=[5, 6, 7, 8])
        m = merge_sets([a, b])
        assert m.port_names == ("p1", "p2")

    def test_values_are_one_readonly_matrix(self):
        grid = FrequencyGrid(np.array([1e9, 2e9, 3e9, 4e9]))
        ports = (PortLabel("p1"), PortLabel("p2"))
        rows = (np.array([1, 2j, 3, 4]), np.array([5, 6, 7j, 8]))
        from_rows = FrequencyResponseSet(grid, ports, rows)
        assert from_rows.values.shape == (2, len(grid))
        assert not from_rows.values.flags.writeable
        assert from_rows == FrequencyResponseSet(grid, ports, np.vstack(rows))
        with pytest.raises(ValueError, match="port p2: 3 samples for 4-point grid"):
            FrequencyResponseSet(grid, ports, (rows[0], rows[1][:3]))

    def test_rejects_nan_samples(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_set([1e9, 2e9, 3e9, 4e9], p1=[1, np.nan, 3, 4])

    @pytest.mark.parametrize("excitation", ["inode:", "vbranch:", "bogus:x",
                                            "modal:a", "modal:a@nan"])
    def test_malformed_excitation_rejected(self, excitation):
        with pytest.raises(ValueError):
            PortLabel("m", excitation)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown response kind 'x'"):
            PortLabel("p", kind="x")

    def test_mixed_kinds_survive_slice_merge_and_csv(self):
        grid = FrequencyGrid(np.arange(1.0, 7.0) * 1e9)
        z = FrequencyResponseSet(grid, (PortLabel("z", "inode:n1", "impedance"),),
                                 (np.arange(6) + 1j,))
        y = FrequencyResponseSet(grid, (PortLabel("y", "vbranch:r1", "admittance"),
                                        PortLabel("t")), (np.ones(6), np.arange(6) * 1j))
        merged = merge_sets([z, y])
        assert [p.kind for p in merged.ports] == ["impedance", "admittance", "transfer"]
        sub = slice_band(merged, 2e9, 5e9)
        assert sub.ports == merged.ports
        text = emit_csv(sub)
        assert text.startswith("# kind: z=impedance,y=admittance,t=transfer\n")
        assert parse_csv(text) == sub

    def test_modal_label_validation(self):
        assert PortLabel("m", "modal:a@0,b@180").excitation == "modal:a@0,b@180"
        with pytest.raises(ValueError):
            PortLabel("m", "modal:a@0,b@")
        with pytest.raises(ValueError):
            PortLabel("m", "bogus:a")


def accepted(build, *strategies):
    """Values from ``build`` over drawn arguments, keeping only those it
    accepts: names are drawn from a wider alphabet than names allow."""
    def attempt(*args):
        try:
            return build(*args)
        except ValueError:
            return None
    return st.builds(attempt, *strategies).filter(lambda spec: spec is not None)


IMPEDANCE_PORT = functools.partial(PortLabel, kind="impedance")


# Names draw on every character the grammar and the CSV directive treat
# specially: separators, whitespace and a line break.  A modal spec joins
# accepted one-node terms.
NAMES = st.text(alphabet="ab1_:;.,@= \t\n", min_size=1, max_size=6)
PHASES = st.floats(min_value=0.0, max_value=360.0, exclude_max=True)
MODAL_TERMS = accepted(lambda n, p: ProbeSpec("modal", nodes=(n,), phases_deg=(p,)),
                       NAMES, PHASES)
MODAL_SPECS = st.lists(MODAL_TERMS, min_size=1, max_size=4).map(
    lambda terms: ProbeSpec("modal", nodes=tuple(t.nodes[0] for t in terms),
                            phases_deg=tuple(t.phases_deg[0] for t in terms)))
SPECS = st.one_of(accepted(current_probe, NAMES), accepted(voltage_probe, NAMES),
                  MODAL_SPECS)
PHASE_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e4, 1e4).map(lambda p: f"{p:g}"),
    st.integers(-2000, 2000).map(str),
    st.sampled_from(["", "nan", "inf", "-0", "+90", "1e-20", "x"]))
DESCRIPTOR_TEXTS = st.one_of(
    st.tuples(st.sampled_from(["inode:", "vbranch:", "bogus:", ""]),
              st.text(alphabet="ab1:;.,@", max_size=6)).map("".join),
    st.lists(st.tuples(st.text(alphabet="ab1:;.", max_size=3), PHASE_TEXTS),
             min_size=1, max_size=4).map(
        lambda terms: "modal:" + ",".join(f"{n}@{p}" for n, p in terms)))


class TestProbeGrammar:
    @settings(max_examples=300, derandomize=True)
    @given(SPECS)
    def test_every_accepted_spec_round_trips(self, spec):
        assert parse_probe(spec.descriptor()) == spec

    @settings(max_examples=300, derandomize=True)
    @given(DESCRIPTOR_TEXTS)
    def test_descriptor_is_a_fixed_point(self, text):
        try:
            canonical = parse_probe(text).descriptor()
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                PortLabel("p", text)
            return
        assert parse_probe(canonical).descriptor() == canonical
        assert PortLabel("p", text).excitation == canonical

    @pytest.mark.parametrize("deg, wrapped", [(-90.0, "270"), (720.0, "0"),
                                              (-1e-20, "0"), (-0.0, "0")])
    def test_phase_wraps_into_range(self, deg, wrapped):
        text = f"modal:a@{deg!r}"
        expect = f"modal:a@{wrapped}"
        assert modal_probe(["a"], [deg]).descriptor() == expect
        assert parse_probe(text).descriptor() == expect
        assert PortLabel("p", text).excitation == expect

    def test_phase_recorded_exactly(self):
        spec = modal_probe(["a", "b"], [0.0, 123.4567891])
        assert spec.descriptor() == "modal:a@0,b@123.4567891"
        assert modal_probe(["a"], [180]).descriptor() == "modal:a@180"

    @settings(max_examples=300, derandomize=True)
    @given(SPECS)
    def test_every_accepted_spec_survives_the_csv_directive(self, spec):
        label = PortLabel("p", spec.descriptor())
        rset = FrequencyResponseSet(FrequencyGrid(np.array([1.0, 2.0, 3.0, 4.0])),
                                    (label,), (np.ones(4, dtype=complex),))
        assert parse_csv(emit_csv(rset)).ports == (label,)

    @settings(max_examples=300, derandomize=True)
    @given(st.one_of(accepted(IMPEDANCE_PORT, NAMES),
                     accepted(IMPEDANCE_PORT, st.text(min_size=1))))
    def test_every_accepted_port_name_survives_the_csv(self, label):
        rset = FrequencyResponseSet(FrequencyGrid(np.array([1.0, 2.0, 3.0, 4.0])),
                                    (label,), (np.ones(4, dtype=complex),))
        assert parse_csv(emit_csv(rset)).ports == (label,)

    @pytest.mark.parametrize("node", ["a,b", "a@b", "a=b", " a", "a ", "a\nb", ""])
    def test_unparseable_modal_node_rejected(self, node):
        with pytest.raises(ValueError, match="modal node"):
            modal_probe([node], [0.0])

    @pytest.mark.parametrize("build, what", [(current_probe, "current probe node"),
                                             (voltage_probe, "voltage probe branch")])
    @pytest.mark.parametrize("name", ["x,y=z", "a=b", " a", "a ", "\ta", "a\nb"])
    def test_name_breaking_the_directive_rejected(self, build, what, name):
        with pytest.raises(ValueError, match=what):
            build(name)

    @pytest.mark.parametrize("phase", [360.0, -1.0, float("nan")])
    def test_spec_keeps_strict_phase_range(self, phase):
        with pytest.raises(ValueError, match="outside"):
            ProbeSpec("modal", nodes=("a",), phases_deg=(phase,))
