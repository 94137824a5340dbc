import errno
import json
import math
import os
import stat
import threading

import numpy as np
import pytest

from gexlab import serialize
from gexlab.errors import ValidationError
from gexlab.serialize import dumps_csv, dumps_json, fmt_float, write_text


class TestFmtFloat:
    def test_round_trips_exactly(self, rng):
        samples = list(rng.normal(size=200)) + list(rng.normal(size=50) * 1e18)
        samples += [0.0, 1.0, 1e-300, math.pi, 2.0 / 3.0]
        for x in samples:
            x = float(x)
            assert float(fmt_float(x)) == x

    def test_negative_zero_is_normalized(self):
        assert fmt_float(-0.0) == fmt_float(0.0) == "0"

    def test_integers_stay_short(self):
        assert fmt_float(2.0) == "2"
        assert fmt_float(0.5) == "0.5"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError):
            fmt_float(bad)


class TestDumpsJson:
    def test_preserves_key_order(self):
        text = dumps_json({"b": 1, "a": 2})
        assert text.index('"b"') < text.index('"a"')

    def test_round_trips_via_stdlib(self):
        obj = {
            "name": "x\"y\\z",
            "values": [1, 2.5, True, False, None],
            "nested": {"deep": [{"k": -0.0}]},
        }
        parsed = json.loads(dumps_json(obj))
        assert parsed["name"] == 'x"y\\z'
        assert parsed["values"] == [1, 2.5, True, False, None]
        assert parsed["nested"]["deep"][0]["k"] == 0.0

    def test_trailing_newline_lf_only(self):
        text = dumps_json({"a": [1, 2]})
        assert text.endswith("\n")
        assert "\r" not in text

    def test_numpy_scalars_accepted(self):
        parsed = json.loads(dumps_json({"a": np.float64(0.5), "b": np.int64(3)}))
        assert parsed == {"a": 0.5, "b": 3}

    def test_rejects_non_string_keys(self):
        with pytest.raises(ValidationError):
            dumps_json({1: "x"})

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            dumps_json({"a": math.nan})

    def test_empty_containers_inline(self):
        assert dumps_json({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}\n'

    def test_rejects_unknown_object_type(self):
        with pytest.raises(ValidationError, match="cannot serialize object of type object"):
            dumps_json({"a": object()})


class TestDumpsCsv:
    def test_cells_and_header(self):
        text = dumps_csv(("n", "ok", "v"), [(1, True, 0.5), (2, False, -3.0)])
        assert text == "n,ok,v\n1,true,0.5\n2,false,-3\n"

    def test_refuses_cells_that_need_quoting(self):
        with pytest.raises(ValidationError, match="refusing"):
            dumps_csv(("a",), [("x,y",)])
        with pytest.raises(ValidationError, match="refusing"):
            dumps_csv(("a",), [("x\ny",)])

    def test_rejects_unknown_cell_type(self):
        with pytest.raises(ValidationError):
            dumps_csv(("a",), [(object(),)])


class TestWriters:
    def test_write_json_is_byte_stable(self, tmp_path):
        path = tmp_path / "r.json"
        obj = {"value": 1.0 / 3.0, "tags": ["a", "b"]}
        write_text(path, dumps_json(obj))
        first = path.read_bytes()
        write_text(path, dumps_json(obj))
        assert path.read_bytes() == first
        assert b"\r" not in first

    def test_write_csv_is_byte_stable(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = [(1, 0.5), (2, 0.25)]
        write_text(path, dumps_csv(("n", "v"), rows))
        first = path.read_bytes()
        write_text(path, dumps_csv(("n", "v"), rows))
        assert path.read_bytes() == first
        assert first == b"n,v\n1,0.5\n2,0.25\n"

    def test_unwritable_report_keeps_old_file(self, tmp_path):
        # a refused report must not truncate: rendering raises before any write
        # (test_cli's test_refused_report_keeps_old_file checks the CLI's order)
        path = tmp_path / "r.json"
        path.write_bytes(b"old")
        with pytest.raises(ValidationError):
            write_text(path, dumps_json({"value": math.nan}))
        with pytest.raises(ValidationError):
            write_text(path, dumps_csv(("v",), [(math.inf,)]))
        assert path.read_bytes() == b"old"

    @pytest.mark.parametrize("write", [
        lambda path: write_text(path, dumps_json({"value": 0.5})),
        lambda path: write_text(path, dumps_csv(("v",), [(0.5,)])),
    ], ids=["json", "csv"])
    def test_failed_write_keeps_old_report_and_leaves_no_temp(self, tmp_path, monkeypatch, write):
        path = tmp_path / "r.json"
        path.write_bytes(b"old report\n")

        class DiskFull:
            """A text file that takes half of the first write, then fails."""

            def __init__(self, fd, *args, **kwargs):
                self.fh = open(fd, *args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(serialize, "open", DiskFull, raising=False)
        with pytest.raises(OSError):
            write(path)
        assert path.read_bytes() == b"old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]

    def test_new_report_gets_plain_open_mode(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        path = tmp_path / "r.json"
        write_text(path, dumps_json({"value": 0.5}))
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "r.json"]

    def test_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_text(fifo, dumps_csv(("v",), [(0.5,)]))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [b"v\n0.5\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_write_through_symlink_replaces_its_target(self, tmp_path):
        real = tmp_path / "real.json"
        real.write_bytes(b"old")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        write_text(link, dumps_json({"value": 0.5}))
        assert link.is_symlink()
        assert real.read_bytes() == b'{\n  "value": 0.5\n}\n'
