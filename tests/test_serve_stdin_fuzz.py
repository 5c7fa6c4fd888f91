"""Property test: every stdin request line gets exactly one answer line.

Hypothesis draws ``{``-prefixed lines for ``repro serve``'s JSON-lines
loop: arbitrary text after the brace, and JSON objects whose ``id`` and
``code`` fields hold arbitrary JSON values — huge ints (past the float
range and past Python's int-string digit limit), NaN and +-inf floats,
nesting around and past the recursion limit, ``null``, bools and
non-ASCII strings, lone surrogates included (they reach stdin as bytes
that are not UTF-8).  Whatever the lines, the command must return 0 and
write one JSON object per non-blank line: a verdict or an
``{"id", "error"}`` line.  A stub advisor stands in for the model, so
no weights load.

Scale the sweep with ``REPRO_FUZZ_N`` (examples; the CI ``--fuzz``
stage raises it, the default keeps tier-1 fast).
"""

import contextlib
import io
import json
import os
import sys
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.serve.api import AdviceResult

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "150"))


class _Raw(str):
    """A JSON literal spliced into the line verbatim — for values
    ``json.dumps`` cannot write itself (ints past the int-string digit
    limit, nesting past the recursion limit)."""


def _dumps(value) -> str:
    if isinstance(value, _Raw):
        return str(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(key)}: {_dumps(item)}"
                               for key, item in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_dumps(item) for item in value) + "]"
    return json.dumps(value)


_HUGE_INTS = st.builds(lambda sign, zeros: _Raw(sign + "1" + "0" * zeros),
                       st.sampled_from(["", "-"]), st.integers(300, 6000))
# depths on both sides of the default recursion limit (1000)
_DEEP = (st.integers(1, 3000) | st.integers(900, 1100)).map(
    lambda depth: _Raw("[" * depth + "]" * depth))
_NUMBERS = (st.integers() | _HUGE_INTS
            | st.floats(allow_nan=True, allow_infinity=True))
_SCALARS = st.none() | st.booleans() | _NUMBERS | st.text()
_VALUES = st.recursive(
    _SCALARS | _DEEP,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=8)

#: JSON objects over the two fields the loop reads (each optional, the
#: ``code`` field biased toward the string it expects) plus stray keys
_OBJECTS = st.builds(
    lambda fields, extra: _dumps({**extra, **fields}),
    st.fixed_dictionaries({}, optional={"id": _VALUES,
                                        "code": st.text() | _VALUES}),
    st.dictionaries(st.text(max_size=8), _VALUES, max_size=2))
#: anything after a brace, on one line (a newline would start a bare-path
#: line, which the loop reads as a file name)
_BRACED = st.text(alphabet=st.characters(blacklist_characters="\n")).map(
    lambda tail: "{" + tail)
_LINES = st.lists(_OBJECTS | _BRACED, min_size=1, max_size=6)


class _StubAdvisor:
    """Answers every snippet with a fixed neutral verdict."""

    def __init__(self):
        self.asked = 0

    def advise_v1(self, requests):
        self.asked += len(requests)
        return [AdviceResult(verdict=False, probability=0.5)
                for _ in requests]

    def stats(self):
        return {"asked": self.asked}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


@settings(max_examples=FUZZ_N, deadline=None, derandomize=True)
@given(lines=_LINES, batch_size=st.integers(1, 4))
def test_every_line_gets_one_json_object(lines, batch_size):
    text = "\n".join(lines) + "\n"
    advisor = _StubAdvisor()
    out = io.StringIO()
    with mock.patch.object(cli, "_make_advisor",
                           lambda args, clauses=None: advisor), \
            mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(
                # a drawn lone surrogate becomes bytes that are not UTF-8
                text.encode("utf-8", "surrogatepass")), encoding="utf-8")), \
            contextlib.redirect_stdout(out):
        rc = cli.main(["serve", "--batch-size", str(batch_size)])
    assert rc == 0
    requests = [line for line in io.StringIO(text) if line.strip()]
    answers = out.getvalue().splitlines()
    assert len(answers) == len(requests), (requests, answers)
    for answer in answers:
        body = json.loads(answer)
        assert isinstance(body, dict) and "id" in body
        assert ("error" in body) != ("needs_directive" in body), body
    verdicts = sum("needs_directive" in json.loads(a) for a in answers)
    assert verdicts == advisor.asked
