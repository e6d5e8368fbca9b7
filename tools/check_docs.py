#!/usr/bin/env python
"""Documentation hygiene checker (run by the CI docs job and
tests/test_docs.py).

Six passes, the first five over README.md and docs/*.md:

1. **Links** -- every relative markdown link target must exist on disk
   (anchors are stripped; external http(s)/mailto links are skipped).
2. **Path references** -- backticked repo paths (`docs/FOO.md`,
   `examples/x.py`, `src/repro/...`, `tests/...`, `tools/...`,
   `benchmarks/...`) must exist; stale references to renamed files
   fail.
3. **Orphans** -- every file under docs/ must be reachable from
   docs/INDEX.md.
4. **CLI verbs** -- every ``python -m repro <verb>`` the docs mention
   must exist in the live argparse tree, and every live subcommand
   must be documented somewhere (docs drift in both directions fails).
5. **REPRO_ knobs** -- every ``REPRO_*`` variable the docs mention
   must exist in ``repro.common.config.KNOBS``, and every knob must
   appear in docs/SERVICE.md's knob table.
6. **Kernel names** -- every ``KERNELS["name"]`` in the docs, in
   ``examples/`` and in ``src/`` (docstrings included) must name a
   registered kernel, so a copied snippet does not raise ``KeyError``.

With --doctest (the default), fenced ```python blocks that contain
doctest prompts (>>>) are additionally executed with `doctest`, so the
examples in the docs cannot rot.

    PYTHONPATH=src python tools/check_docs.py
    python tools/check_docs.py --no-doctest      # links/orphans only
"""

from __future__ import annotations

import argparse
import doctest
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO = Path(__file__).resolve().parent.parent

#: [text](target) -- excluding images; target captured up to the ')'.
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")

#: Backticked repo-relative paths worth verifying.
_PATH_RE = re.compile(
    r"`((?:docs|examples|tests|tools|benchmarks|src/repro|repro)/"
    r"[A-Za-z0-9_./-]+\.(?:py|md|json|yml))(?:::[A-Za-z0-9_.:]+)?`"
)

#: Fenced python code blocks (the info string may carry extras).
_FENCE_RE = re.compile(r"```python[^\n]*\n(.*?)```", re.DOTALL)


def doc_files() -> List[Path]:
    """README plus everything under docs/, sorted for stable output."""
    return [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))


def _resolve(base: Path, target: str) -> Path:
    target = target.split("#", 1)[0]
    return (base.parent / target).resolve()


def _rel(doc: Path) -> str:
    try:
        return str(doc.relative_to(REPO))
    except ValueError:
        return str(doc)


def check_links(files=None) -> List[str]:
    """Return one error string per dangling relative link."""
    errors = []
    for doc in files or doc_files():
        text = doc.read_text()
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            if not _resolve(doc, target).exists():
                errors.append(
                    f"{_rel(doc)}: dangling link -> {target}"
                )
    return errors


def check_path_refs(files=None) -> List[str]:
    """Return one error string per backticked path that does not exist."""
    errors = []
    for doc in files or doc_files():
        text = doc.read_text()
        for match in _PATH_RE.finditer(text):
            ref = match.group(1)
            # `repro/...` is shorthand for the package under src/.
            candidates = [REPO / ref]
            if ref.startswith("repro/"):
                candidates.append(REPO / "src" / ref)
            if not any(c.exists() for c in candidates):
                errors.append(
                    f"{_rel(doc)}: stale path reference `{ref}`"
                )
    return errors


def check_orphans() -> List[str]:
    """Every doc under docs/ must be mentioned in docs/INDEX.md."""
    index = REPO / "docs" / "INDEX.md"
    if not index.exists():
        return ["docs/INDEX.md is missing"]
    text = index.read_text()
    errors = []
    for doc in sorted((REPO / "docs").glob("*.md")):
        if doc.name != "INDEX.md" and doc.name not in text:
            errors.append(f"docs/{doc.name}: not referenced by docs/INDEX.md")
    return errors


#: ``python -m repro <verb>`` mentions (verbs are lowercase words with
#: optional dashes; placeholders like ``<command>`` don't match).
_VERB_RE = re.compile(r"python -m repro\s+([a-z][a-z0-9-]*)")

#: Environment-variable mentions of the repro knob namespace.
_KNOB_RE = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*\b")


def _import_repro():
    """Make the package importable even when PYTHONPATH=src is unset."""
    src = str(REPO / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def live_verbs() -> set:
    """Subcommand names of the live ``python -m repro`` argparse tree
    (read from the parser itself, not a hand-maintained list)."""
    _import_repro()
    from repro.__main__ import build_parser

    parser = build_parser()
    for action in parser._subparsers._group_actions:
        if action.choices:
            return set(action.choices)
    return set()


def check_cli_verbs(files=None) -> List[str]:
    """Cross-check documented ``python -m repro`` verbs against the
    parser, in both directions: a documented verb that does not parse
    is stale docs; a live verb no doc mentions is undocumented UI."""
    verbs = live_verbs()
    errors = []
    documented: set = set()
    for doc in files or doc_files():
        text = doc.read_text()
        for match in _VERB_RE.finditer(text):
            verb = match.group(1)
            documented.add(verb)
            if verb not in verbs:
                errors.append(
                    f"{_rel(doc)}: documents `python -m repro {verb}`, "
                    f"which is not a live subcommand (have: "
                    f"{', '.join(sorted(verbs))})"
                )
    if files is None:
        for verb in sorted(verbs - documented):
            errors.append(
                f"`python -m repro {verb}` exists but no doc mentions it "
                "(add it to README.md or a docs/ page)"
            )
    return errors


def check_knobs(files=None) -> List[str]:
    """Cross-check documented ``REPRO_*`` variables against
    ``repro.common.config.KNOBS``, in both directions; the full knob
    table must live in docs/SERVICE.md."""
    _import_repro()
    from repro.common.config import KNOBS

    known = {knob.env for knob in KNOBS.values()}
    errors = []
    for doc in files or doc_files():
        text = doc.read_text()
        for var in sorted(set(_KNOB_RE.findall(text))):
            if var not in known:
                errors.append(
                    f"{_rel(doc)}: documents {var}, which is not a knob "
                    f"in repro.common.config (have: {', '.join(sorted(known))})"
                )
    if files is None:
        service = REPO / "docs" / "SERVICE.md"
        table = service.read_text() if service.exists() else ""
        for var in sorted(known):
            if var not in table:
                errors.append(
                    f"docs/SERVICE.md: knob table is missing {var} "
                    "(every repro.common.config knob must be documented "
                    "there)"
                )
    return errors


#: A lookup in the kernel registry: ``KERNELS["name"]``.
_KERNEL_RE = re.compile(r"""\bKERNELS\[["']([^"']+)["']\]""")


def kernel_lookup_files() -> List[Path]:
    """The docs plus every example and ``src/`` module."""
    return (
        doc_files()
        + sorted((REPO / "examples").glob("*.py"))
        + sorted((REPO / "src").rglob("*.py"))
    )


def check_kernel_names(files=None) -> List[str]:
    """Every ``KERNELS["name"]`` must name a registered kernel."""
    _import_repro()
    from repro.workloads.kernels import KERNEL_NAMES

    errors = []
    for doc in files or kernel_lookup_files():
        for name in sorted(set(_KERNEL_RE.findall(doc.read_text()))):
            if name not in KERNEL_NAMES:
                errors.append(
                    f"{_rel(doc)}: looks up KERNELS[{name!r}], which is not "
                    f"a registered kernel (have: {', '.join(KERNEL_NAMES)})"
                )
    return errors


def doctest_blocks(files=None) -> Iterator[Tuple[Path, int, str]]:
    """Yield (doc, block_index, source) for python fences with >>> lines."""
    for doc in files or doc_files():
        text = doc.read_text()
        for i, match in enumerate(_FENCE_RE.finditer(text)):
            block = match.group(1)
            if ">>>" in block:
                yield doc, i, block


def run_doctests(files=None, verbose: bool = False) -> List[str]:
    """Execute every doctest-bearing snippet; return failure strings."""
    errors = []
    parser = doctest.DocTestParser()
    for doc, i, block in doctest_blocks(files):
        name = f"{_rel(doc)}[block {i}]"
        test = parser.get_doctest(block, {}, name, str(doc), 0)
        runner = doctest.DocTestRunner(
            verbose=verbose, optionflags=doctest.ELLIPSIS
        )
        out: List[str] = []
        runner.run(test, out=out.append)
        if runner.failures:
            errors.append(f"{name}: {runner.failures} doctest failure(s)\n"
                          + "".join(out))
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--no-doctest", action="store_true",
                    help="skip executing docs snippets (links/orphans only)")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    errors = (
        check_links()
        + check_path_refs()
        + check_orphans()
        + check_cli_verbs()
        + check_knobs()
        + check_kernel_names()
    )
    if not args.no_doctest:
        errors += run_doctests(verbose=args.verbose)

    for err in errors:
        print(err, file=sys.stderr)
    n_docs = len(doc_files())
    n_blocks = sum(1 for _ in doctest_blocks())
    print(f"checked {n_docs} docs, {n_blocks} doctest blocks: "
          f"{len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
