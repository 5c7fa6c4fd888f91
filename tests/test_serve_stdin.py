"""``repro serve`` without ``--http``: the JSON-lines loop on stdin, end to
end through the CLI, in process and on a two-worker fleet.

The model is the tiny experiment context ``tests/test_extensions.py``
trains (same scale name, so one pytest process trains it once),
monkeypatched in as the CLI's context.  The expected stdout lines were
captured in process after the change that draws each dropout mask from
16-bit lanes for the rows it is applied to (the model trains through the
one-worker data-parallel trainer, on one BLAS thread); the loop's output
must not change with the engine behind it, in process or on two shards.
The ``io`` request scores 0.058 below the 0.5 verdict threshold, so the
golden holds both verdicts and a small arithmetic move changes its
digits, not its verdict.
"""

import io
import json
import sys

import pytest

from repro.models import PragFormerConfig
from repro.pipeline import ScaleConfig
from repro.pipeline.context import get_context

TINY = ScaleConfig(
    name="tiny-ext",
    corpus_records=260,
    epochs=3,
    mlm_epochs=1,
    pragformer=PragFormerConfig(d_model=32, n_heads=2, n_layers=1, d_ff=64,
                                d_head_hidden=32, batch_size=32, seed=0),
)

MODES = [pytest.param([], id="in-process"),
         pytest.param(["--shards", "2"], id="2-shards")]

#: a recursion-limit-busting ``{``-prefixed line: ``json.loads`` raises
#: ``RecursionError`` on it, not ``ValueError``
DEEP = '{"a":' + "[" * 100000 + "]" * 100000 + "}"


@pytest.fixture(scope="module")
def ctx():
    return get_context(TINY)


@pytest.fixture
def serve(ctx, monkeypatch, capsys):
    """Run ``repro serve ARGV`` on ``lines``; returns (rc, stdout lines,
    stderr)."""
    import repro.pipeline
    from repro.cli import main

    monkeypatch.setattr(repro.pipeline, "get_context", lambda: ctx)

    def run(argv, lines):
        """``lines`` is a list of text lines, or the raw stdin bytes; the
        loop reads ``sys.stdin.buffer``, as on a real stdin."""
        data = lines if isinstance(lines, bytes) else \
            ("\n".join(lines) + "\n").encode("utf-8")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8"))
        rc = main(["serve", *argv])
        captured = capsys.readouterr()
        return rc, captured.out.splitlines(), captured.err

    return run


def _requests(tmp_path):
    path = tmp_path / "loop.c"
    path.write_text("for (i = 0; i < n; i++) a[i] = b[i] + c[i];\n")
    lines = [
        json.dumps({"id": "sum",
                    "code": "for (i = 0; i < n; i++) s += a[i];"}),
        str(path),                                # a bare file path
        "{not json",                              # malformed
        json.dumps({"id": 7, "code": 5}),         # non-string code
        "",                                       # blank: skipped
        json.dumps({"id": "io", "code": 'for (i = 0; i < n; i++) '
                                        '{ fprintf(stderr, "x"); }'}),
        json.dumps({"code": "while (k < n) { total += buf[k]; k++; }"}),
    ]
    # errors are written as each line is read; verdicts when the batch
    # flushes at EOF
    expected = [
        '{"id": "{not json", "error": "Expecting property name enclosed '
        'in double quotes: line 1 column 2 (char 1)"}',
        '{"id": 7, "error": "request needs a string \'code\' field"}',
        '{"id": "sum", "needs_directive": true, "p_directive": 0.631459}',
        f'{{"id": "{path}", "needs_directive": true, '
        '"p_directive": 0.560359}',
        '{"id": "io", "needs_directive": false, "p_directive": 0.44235}',
        '{"id": null, "needs_directive": true, "p_directive": 0.555432}',
    ]
    return lines, expected


@pytest.mark.parametrize("argv", MODES)
def test_stdout_lines(serve, tmp_path, argv):
    lines, expected = _requests(tmp_path)
    rc, out, _ = serve(argv, lines)
    assert rc == 0
    assert out == expected


@pytest.mark.parametrize("argv", MODES)
def test_deep_json_line_gets_an_error_line(serve, argv):
    """A line nested past the recursion limit is one bad request, not
    the end of the loop: it gets an ``{"id", "error"}`` line and the
    next line is still served."""
    code = "for (i = 0; i < n; i++) s += a[i];"
    rc, out, _ = serve(argv, [DEEP, json.dumps({"id": "after",
                                                "code": code})])
    assert rc == 0
    assert len(out) == 2
    error = json.loads(out[0])
    assert error["id"] == DEEP[:80]
    assert "recursion" in error["error"]
    assert json.loads(out[1]) == {"id": "after", "needs_directive": True,
                                  "p_directive": 0.631459}


@pytest.mark.parametrize("argv", MODES)
def test_undecodable_line_gets_an_error_line(serve, argv):
    """Bytes that are not UTF-8 make one bad request: the lines around
    them, read in the same buffer, are still answered."""
    rc, out, _ = serve(argv, b'{"id": 1, "code": "x;"}\n\xff\xfe\n'
                             b'{"id": 2, "code": "y;"}\n')
    assert rc == 0
    assert len(out) == 3
    error = json.loads(out[0])
    assert error["id"] == "\ufffd\ufffd"
    assert "utf-8" in error["error"]
    answers = [json.loads(line) for line in out[1:]]
    assert [a["id"] for a in answers] == [1, 2]
    assert all(isinstance(a["needs_directive"], bool) for a in answers)


@pytest.mark.parametrize("argv", MODES)
def test_stats_writes_one_json_object(serve, tmp_path, argv):
    lines, expected = _requests(tmp_path)
    rc, out, err = serve([*argv, "--stats"], lines)
    assert rc == 0
    assert out == expected
    stats_lines = err.splitlines()
    assert len(stats_lines) == 1
    stats = json.loads(stats_lines[0])
    assert isinstance(stats, dict)
    # the MultiModelEngine.stats() shape (summed over workers on a fleet)
    assert stats["model_version"] == "0"
    assert stats["combined"]["requests"] == 4
