"""Text inputs: where lines break, and how hostile bytes fail.

Every text input (refs, hyps, `correct --in`, dictionaries, manifests and
confusion matrices) is UTF-8 with an optional BOM, split into lines as text
mode splits them.  A file that cannot be read fails with a ValueError that
starts with its path, and the CLI prints it as one line.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dysaug import ConfusionMatrix, cli, load_dictionary, manifest, read_manifest

from .test_cli import run_cli

BOM = "\ufeff"
# deeper than any recursion limit json's decoder runs under
DEEP = 100_000


class TestLineBreaks:
    """\\n, \\r\\n and \\r end a line; \\x85, \\x0c and U+2028 do not; a BOM is
    dropped at the start of a file only."""

    def test_score(self, tmp_path, capsys):
        refs = tmp_path / "r.txt"
        hyps = tmp_path / "h.txt"
        refs.write_bytes(f"{BOM}a\nb\r\nc\rd\x85e\x0cf\u2028g\n{BOM}h\n".encode())
        hyps.write_bytes(b"a\nb\nc\nd e f g\nh\n")
        assert cli.main(["score", "--refs", str(refs), "--hyps", str(hyps)]) == 0
        # 8 reference words; only the second BOM, kept on line 5, is an error
        assert capsys.readouterr().out.splitlines()[-1] == "1\t0\t0\t0.125"

    def test_dictionary(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_bytes(f"{BOM}cat\t1\ndog\t2\r\nemu\t3\rfox\t4\n{BOM}ant\n".encode())
        d = load_dictionary(path)
        assert dict(d.freq) == {"cat": 1, "dog": 2, "emu": 3, "fox": 4, f"{BOM}ant": 0}
        # \x85, \x0c and U+2028 stay inside their line, where they are
        # whitespace inside a word, which `correct` would split in two
        for word in ("fox\x85gnu", "hen\x0cyak", "yak\u2028owl"):
            path.write_bytes(f"cat\t1\ndog\r\n{word}\t4\n".encode())
            with pytest.raises(ValueError, match=rf"d\.txt:3: word {re.escape(repr(word))} "
                                                 "holds whitespace"):
                load_dictionary(path)

    def test_manifest(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(
            (BOM + '{"id": "a", "audio": "a.wav"}\n{"id": "b", "audio": "b.wav"}\r\n'
             '{"id": "c", "audio": "c.wav", "text": "x\x85y\u2028z"}\r'
             '{"id": "d", "audio": "d.wav"}\n').encode()
        )
        entries = read_manifest(path)
        assert [e.id for e in entries] == ["a", "b", "c", "d"]
        assert entries[2].text == "x\x85y\u2028z"
        # a form feed between two objects leaves them on one line
        path.write_bytes(b'{"id": "a", "audio": "a.wav"}\n'
                         b'{"id": "b", "audio": "b.wav"}\x0c{"id": "c", "audio": "c.wav"}\n')
        with pytest.raises(ValueError, match=r"m\.jsonl:2: invalid JSON: Extra data"):
            read_manifest(path)
        path.write_bytes(f'{{"id": "a", "audio": "a.wav"}}\n{BOM}{{"id": "b"}}\n'.encode())
        with pytest.raises(ValueError, match=r"m\.jsonl:2: invalid JSON: Unexpected UTF-8 BOM"):
            read_manifest(path)


# pieces of hostile text files: BOMs, invalid UTF-8 (a lone continuation
# byte, a truncated sequence, an encoded surrogate), NUL, every line break,
# deep nesting, surrogate escapes, and pieces of well-formed inputs
_PIECES = [
    b"\xef\xbb\xbf", b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\x00",
    b"\n", b"\r", b"\r\n", b"\x0c", b"\xc2\x85", b"\xe2\x80\xa8", b"\t", b" ",
    b"[" * DEEP, b'{"a": ' * DEEP, b'"\\ud800"', b'"\\udfff\\ud800"',
    b'{"id": "u1", "audio": "a.wav"}', b'{"id": "u2", "audio": "b.wav", "text": "\\ud800"}',
    b'{"alphabet": ["", "a"], "probabilities": [[1, 0], [0, 1]]}',
    b'{"alphabet": ["", "\\ud800"], "probabilities": [[1, 0], [0, 1]]}',
    b"cat", b"cat\t5", b"dog\t-1", b"\t7",
]
_hostile_files = st.lists(st.one_of(st.sampled_from(_PIECES), st.binary(max_size=6)),
                          max_size=10).map(b"".join)

_READERS = {
    "lines": lambda path: list(manifest._read_text(path)),  # refs, hyps, `correct --in`
    "manifest": read_manifest,
    "dictionary": load_dictionary,
    "confusion": ConfusionMatrix.load,
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_hostile_files)
def test_text_reader_fuzz_gives_result_or_error_naming_the_path(tmp_path, reader, data):
    path = tmp_path / "fuzz.txt"
    path.write_bytes(data)
    try:
        result = _READERS[reader](path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:"), exc
    else:
        if reader == "lines":
            assert not any("\n" in line or "\r" in line for line in result)


def _write(tmp_path, name, data: bytes) -> str:
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


_ENTRY = b'{"id": "u1", "audio": "a.wav"}\n'
_MATRIX = b'{"alphabet": ["", "a"], "probabilities": [[1, 0], [0, 1]]}'


@pytest.mark.parametrize("command, bad, data, where, reason", [
    pytest.param("batch", "m.jsonl", _ENTRY + b"[" * DEEP + b"\n", ":2", "nested too deep",
                 id="manifest-deep"),
    pytest.param("correct", "c.json", b"[" * DEEP, "", "nested too deep", id="confusion-deep"),
    pytest.param("score", "h.txt", b"the cat\non \xff mat\n", ":2", "not valid UTF-8",
                 id="hyps-utf8"),
    pytest.param("batch", "m.jsonl", _ENTRY + b'{"id": "u2", "audio": "\xff.wav"}\n', ":2",
                 "not valid UTF-8", id="manifest-utf8"),
    # the first bad line wins, though text mode decodes the next one with it
    pytest.param("batch", "m.jsonl", b'not json\n{"id": "u2", "audio": "\xff.wav"}\n', ":1",
                 "invalid JSON: Expecting value: line 1 column 1 (char 0)",
                 id="manifest-json-before-utf8"),
    # past the first 8 KiB block that text mode decodes
    pytest.param("correct", "d.txt", b"\xef\xbb\xbf" + b"cat\r" * 3000 + b"dog\r\n\xc3\n",
                 ":3002", "not valid UTF-8", id="dictionary-utf8"),
    pytest.param("correct", "in.txt", b"cat\n\ncat \xed\xa0\x80\n", ":3", "not valid UTF-8",
                 id="correct-in-utf8"),
    pytest.param("batch", "m.jsonl", b'{"id": "u1", "audio": "a.wav", "text": "\\ud800"}\n',
                 ":1", "field 'text' holds a lone surrogate", id="manifest-surrogate"),
    pytest.param("correct", "c.json", _MATRIX.replace(b'"a"', b'"\\ud800"'), "",
                 "confusion matrix 'alphabet' holds a lone surrogate", id="confusion-surrogate"),
])
def test_hostile_text_input_is_one_error_line(tmp_path, command, bad, data, where, reason):
    files = {"m.jsonl": _ENTRY, "c.json": _MATRIX, "r.txt": b"the cat\non the mat\n",
             "h.txt": b"the cat\non a mat\n", "d.txt": b"cat\n", "in.txt": b"cat\n"}
    files[bad] = data
    paths = {name: _write(tmp_path, name, content) for name, content in files.items()}
    out_dir = tmp_path / "out"
    args = {
        "batch": ["--manifest", paths["m.jsonl"], "--out-dir", str(out_dir), "--jobs", "1"],
        "correct": ["--dict", paths["d.txt"], "--confusion", paths["c.json"],
                    "--in", paths["in.txt"], "--out", str(tmp_path / "out.txt")],
        "score": ["--refs", paths["r.txt"], "--hyps", paths["h.txt"]],
    }[command]
    proc = run_cli(command, *args)
    assert proc.returncode == 1
    assert re.fullmatch(f"dysaug: {re.escape(paths[bad] + where)}: {re.escape(reason)}\n",
                        proc.stderr), proc.stderr
    # a bad input fails as it is read, before any output exists
    assert not out_dir.exists() and not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("command, data, error", [
    pytest.param("score", "the cat\non \udcff mat\n", "2: not valid UTF-8", id="hyps-utf8"),
    pytest.param("correct", "cat\na b\t3\n",
                 "2: word 'a b' holds whitespace; fields are tab-separated", id="dictionary"),
])
def test_a_piped_input_is_read_once_and_names_its_bad_line(tmp_path, command, data, error):
    # a pipe cannot be read twice: the reader that meets the bad line names it
    text = _write(tmp_path, "r.txt", b"the cat\non the mat\n")
    out = tmp_path / "out.txt"
    args = {
        "score": ["--refs", text, "--hyps", "/dev/stdin"],
        "correct": ["--dict", "/dev/stdin", "--in", text, "--out", str(out)],
    }[command]
    proc = run_cli(command, *args, input=data)
    assert proc.returncode == 1
    assert proc.stderr == f"dysaug: /dev/stdin:{error}\n"
    assert not out.exists()
