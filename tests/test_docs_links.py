"""Documentation health checks: links, CLI coverage, serve docstrings.

Docs rot silently — a renamed file leaves `[text](old/path.md)` links that
404 for every reader.  This suite walks every tracked ``*.md`` file in the
repo and fails on relative links whose targets don't exist, pins the
README + serving/operations docs to the surface they promise to cover
(every endpoint in the HTTP route table, and operator CLI flags), fails
on any endpoint the docs or examples spell without its ``/v1/`` prefix,
fails on any ``--flag`` the docs name
that neither the CLI nor ``scripts/check.sh`` accepts, fails on any
`` `Class.member` `` the docs name that the class no longer has, and
audits every public symbol in
``repro.serve.*`` for a docstring — the serving stack is the repo's
operator-facing API, and an undocumented public function there is a doc
bug, not a style nit.
"""

import argparse
import dataclasses
import inspect
import pkgutil
import re
from importlib import import_module
from pathlib import Path

import pytest

from repro.serve.http_api import ROUTES

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every HTTP endpoint path the server routes, from its route table.
ENDPOINTS = sorted({path for _method, path in ROUTES})

#: An endpoint spelled without its ``/v1/`` prefix: ``localhost:8080/stats``
#: or ``POST /advise``, but not ``/v1/advise`` or a file path such as
#: ``reload/canary``.
_BARE_ENDPOINT = re.compile(
    r"(?<!/v1)(?<![A-Za-z_])("
    + "|".join(re.escape(path.removeprefix("/v1"))
               for path in sorted(ENDPOINTS, key=len, reverse=True))
    + r")\b")

#: Inline markdown links: [text](target) — target captured without title.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")


def _markdown_files():
    files = sorted(REPO_ROOT.glob("*.md")) + sorted(REPO_ROOT.glob("docs/**/*.md"))
    assert files, "no markdown files found — wrong repo root?"
    return files


def _relative_links(path: Path):
    """(link, resolved target) pairs for every relative link in ``path``."""
    for target in _LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        yield target, resolved


class TestRelativeLinks:
    @pytest.mark.parametrize("md", _markdown_files(),
                             ids=lambda p: str(p.relative_to(REPO_ROOT)))
    def test_no_dangling_relative_links(self, md):
        dangling = [link for link, resolved in _relative_links(md)
                    if not resolved.exists()]
        assert not dangling, (
            f"{md.relative_to(REPO_ROOT)} has dangling relative links: {dangling}")

    def test_docs_are_actually_linked(self):
        """README must reach the serving doc, the roadmap, and the paper."""
        readme = (REPO_ROOT / "README.md").read_text()
        for target in ("docs/serving.md", "ROADMAP.md", "PAPER.md",
                       "docs/operations.md", "docs/architecture.md"):
            assert target in readme, f"README.md does not link {target}"

    def test_serving_doc_links_operations_doc(self):
        """The architecture page and the operator's guide must reference
        each other — a reader landing on either finds the other."""
        serving = (REPO_ROOT / "docs" / "serving.md").read_text()
        operations = (REPO_ROOT / "docs" / "operations.md").read_text()
        assert "operations.md" in serving
        assert "serving.md" in operations
        assert "architecture.md" in serving


def _cli_parsers():
    """``(command path, parser)`` for ``repro`` itself (path ``""``) and
    every nested subcommand, e.g. ``("checkpoint upgrade", ...)``."""
    from repro import cli

    stack = [("", cli._build_parser())]
    while stack:
        path, parser = stack.pop()
        yield path, parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                stack.extend((f"{path} {name}".strip(), sub)
                             for name, sub in action.choices.items())


class TestCliCoverage:
    def _subcommands(self):
        """Every registered ``repro`` subcommand path, from the parser."""
        return sorted(path for path, _parser in _cli_parsers() if path)

    def test_readme_covers_every_subcommand(self):
        readme = (REPO_ROOT / "README.md").read_text()
        missing = [cmd for cmd in self._subcommands()
                   if f"repro {cmd}" not in readme]
        assert not missing, f"README.md does not document: {missing}"
        assert self._subcommands(), "no subcommands found in cli.py"

    def test_serving_doc_covers_http_endpoints(self):
        doc = (REPO_ROOT / "docs" / "serving.md").read_text()
        assert len(ENDPOINTS) == 8, "route table scan looks wrong"
        for endpoint in ENDPOINTS:
            assert endpoint.startswith("/v1/"), endpoint
            assert endpoint in doc, f"docs/serving.md missing {endpoint}"

    def test_no_bare_endpoint_paths(self):
        """The server answers only ``/v1/`` paths, so docs and examples
        that spell an endpoint without the prefix show a 404."""
        files = [REPO_ROOT / "README.md",
                 *sorted((REPO_ROOT / "docs").glob("*.md")),
                 *sorted((REPO_ROOT / "examples").glob("*"))]
        bare = sorted(
            f"{path.relative_to(REPO_ROOT)}:{n}: {match.group(1)}"
            for path in files if path.is_file()
            for n, line in enumerate(path.read_text().splitlines(), 1)
            for match in _BARE_ENDPOINT.finditer(line))
        assert not bare, f"endpoints spelled without /v1/: {bare}"

    def test_bare_endpoint_scan_sees_bare_paths(self):
        """Guard the scan: bare spellings match, ``/v1/`` ones and file
        paths do not."""
        assert [m.group(1) for m in _BARE_ENDPOINT.finditer(
            "curl localhost:8080/advise/batch; GET /stats; POST /canary")
        ] == ["/advise/batch", "/stats", "/canary"]
        assert not _BARE_ENDPOINT.search(
            "POST /v1/advise, GET /v1/healthz, reload/canary, /statsd")

    def test_operations_doc_covers_operator_surface(self):
        """The operator's guide must document every operability CLI flag
        and every endpoint an operator touches."""
        doc = (REPO_ROOT / "docs" / "operations.md").read_text()
        for flag in ("--watch", "--gate-margin", "--shards", "--canary",
                     "--canary-fraction", "--request-timeout",
                     "--max-body-bytes"):
            assert flag in doc, f"docs/operations.md missing flag {flag}"
        for endpoint in ENDPOINTS:
            assert endpoint in doc, f"docs/operations.md missing {endpoint}"
        for concept in ("model_version", "gating", "canary", "promote",
                        "rollback", "respawn", "circuit breaker", "retry-after", "restart budget",
                        "degraded", "deadline_exceeded", "crash loop"):
            assert concept in doc.lower(), (
                f"docs/operations.md missing {concept}")

    def test_operability_flags_exist_in_cli(self):
        """The flags the docs promise must actually be registered — a doc
        describing a removed flag is worse than no doc."""
        from repro import cli

        source = Path(cli.__file__).read_text()
        for flag in ("--watch", "--gate-margin", "--canary",
                     "--canary-fraction", "--request-timeout",
                     "--max-body-bytes"):
            assert f'"{flag}"' in source, f"cli.py lost {flag}"

    def test_docs_name_no_stale_flags(self):
        """Every ``--flag`` in README.md and docs/*.md must be accepted
        somewhere: a ``repro`` CLI option, ``--help``, or a
        ``scripts/check.sh`` mode (its ``case`` arms).  Catches docs that
        outlive a removed flag or mode."""
        known = {"--help"}
        for _path, parser in _cli_parsers():
            for action in parser._actions:
                known.update(o for o in action.option_strings
                             if o.startswith("--"))
        check_sh = (REPO_ROOT / "scripts" / "check.sh").read_text()
        modes = set(re.findall(r"^\s*(--[\w-]+)\)", check_sh, re.M))
        assert "--shm-weights" in modes, "check.sh case arms not parsed"
        known |= modes
        docs = [REPO_ROOT / "README.md",
                *sorted((REPO_ROOT / "docs").glob("*.md"))]
        stale = sorted(
            f"{doc.relative_to(REPO_ROOT)}: {flag}" for doc in docs
            for flag in set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*",
                                       doc.read_text()))
            if flag not in known)
        assert not stale, f"docs name flags nothing accepts: {stale}"

    def test_architecture_doc_maps_every_package(self):
        """docs/architecture.md must name every top-level repro package
        and trace the /v1/advise request path."""
        doc = (REPO_ROOT / "docs" / "architecture.md").read_text()
        pkg_root = REPO_ROOT / "src" / "repro"
        packages = sorted(p.name for p in pkg_root.iterdir()
                          if p.is_dir() and (p / "__init__.py").is_file())
        assert len(packages) >= 10, "package scan looks wrong"
        missing = [pkg for pkg in packages if f"`{pkg}/`" not in doc]
        assert not missing, f"docs/architecture.md missing packages: {missing}"
        assert "/v1/advise" in doc, "request path walk-through missing"
        assert "`cli.py`" in doc


#: `Class.member` references, optionally called: `Class.member(...)`.
_API_REF = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)(?:\([^`]*\))?`")

#: File-name suffixes: `` `BENCH_serving.json` `` matches :data:`_API_REF`
#: but names a file, not a class member.
_FILE_SUFFIXES = frozenset({"json", "md", "py", "c", "sh", "txt", "yml"})

#: Packages whose exported classes the docs' API references are checked
#: against.
_API_PACKAGES = ("repro.serve", "repro.models", "repro.nn", "repro.train",
                 "repro.data", "repro.tokenize")


def _exported_classes():
    """``{name: class}`` for every class in the packages' ``__all__``."""
    classes = {}
    for package in _API_PACKAGES:
        module = import_module(package)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                classes[name] = obj
    return classes


def _has_member(cls, member):
    """Is ``member`` a class attribute, a dataclass field, or an instance
    attribute assigned as ``self.<member> = ...`` in the class (or a base
    class) source?"""
    if hasattr(cls, member):
        return True
    if dataclasses.is_dataclass(cls) and member in {
            f.name for f in dataclasses.fields(cls)}:
        return True
    assign = re.compile(rf"\bself\.{member}\s*(?::[^=\n]+)?=(?!=)")
    for klass in cls.__mro__[:-1]:  # skip object
        try:
            source = inspect.getsource(klass)
        except (OSError, TypeError):
            continue
        if assign.search(source):
            return True
    return False


def _stale_api_refs(text, classes):
    """`` `Class.member` `` references in ``text`` that do not resolve:
    the class is not exported by a core package (deleted or renamed) or
    lacks the member.  File names (`` `BENCH_serving.json` ``) are not
    references."""
    return sorted({f"{cls}.{member}"
                   for cls, member in _API_REF.findall(text)
                   if member not in _FILE_SUFFIXES
                   and (cls not in classes
                        or not _has_member(classes[cls], member))})


class TestApiNames:
    def test_docs_name_no_stale_api_members(self):
        """Every `` `Class.member` `` in README.md and docs/*.md must
        name a class a core package exports, and a member that class
        still has.  Catches docs that outlive a deleted class, method or
        option."""
        classes = _exported_classes()
        docs = [REPO_ROOT / "README.md",
                *sorted((REPO_ROOT / "docs").glob("*.md"))]
        n_refs = sum(len(_API_REF.findall(doc.read_text())) for doc in docs)
        assert n_refs >= 20, "API-reference scan looks wrong"
        stale = [f"{doc.relative_to(REPO_ROOT)}: {ref}" for doc in docs
                 for ref in _stale_api_refs(doc.read_text(), classes)]
        assert not stale, f"docs name API members that do not exist: {stale}"

    def test_instance_attributes_resolve(self):
        """Guard the resolver: an attribute only assigned in ``__init__``
        counts, a name the class never had does not."""
        from repro.serve import CheckpointWatcher, InferenceEngine

        assert _has_member(CheckpointWatcher, "last_error")
        assert not hasattr(CheckpointWatcher, "last_error")
        assert not _has_member(InferenceEngine, "submit")

    def test_unexported_classes_are_stale(self):
        """Guard the scan: a reference to a class no core package
        exports is stale, a file name is not."""
        classes = _exported_classes()
        assert _stale_api_refs("`NoSuchAdvice.as_dict()`", classes) == [
            "NoSuchAdvice.as_dict"]
        assert _stale_api_refs("`AdviceResult.as_dict()` and "
                               "`BENCH_serving.json`", classes) == []


class TestServeDocstrings:
    """Every public symbol in repro.serve.* carries a docstring.

    Public = importable without a leading underscore and *defined* in the
    module (re-exports are audited where they are defined).  Classes are
    audited recursively: public methods, properties, class/static methods.
    """

    def _serve_modules(self):
        import repro.serve

        yield repro.serve
        for info in pkgutil.iter_modules(repro.serve.__path__):
            yield import_module(f"repro.serve.{info.name}")

    def _undocumented_in_class(self, cls, qualname):
        for name, member in vars(cls).items():
            if name.startswith("_"):
                continue
            target = None
            if isinstance(member, property):
                target = member.fget
            elif isinstance(member, (classmethod, staticmethod)):
                target = member.__func__
            elif inspect.isfunction(member):
                target = member
            if target is not None and not inspect.getdoc(target):
                yield f"{qualname}.{name}"

    def test_every_public_serve_symbol_has_docstring(self):
        missing = []
        for module in self._serve_modules():
            if not inspect.getdoc(module):
                missing.append(module.__name__)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-export; audited where defined
                if inspect.isclass(obj):
                    if not inspect.getdoc(obj):
                        missing.append(f"{module.__name__}.{name}")
                    missing.extend(self._undocumented_in_class(
                        obj, f"{module.__name__}.{name}"))
                elif inspect.isfunction(obj) and not inspect.getdoc(obj):
                    missing.append(f"{module.__name__}.{name}")
        assert not missing, (
            "public serve symbols without docstrings: "
            + ", ".join(sorted(missing)))

    def test_audit_actually_sees_the_surface(self):
        """Guard the auditor itself: it must walk all seven serve modules
        and a healthy sample of known-public symbols."""
        names = {m.__name__ for m in self._serve_modules()}
        assert names == {"repro.serve", "repro.serve.api",
                         "repro.serve.chaos",
                         "repro.serve.engine", "repro.serve.http_api",
                         "repro.serve.metrics", "repro.serve.registry",
                         "repro.serve.sharding"}
