"""The argv corpus of record: what qgl answers to every argv of
``argv_corpus.json``, replayed and compared.

The file maps each section to a list of ``[record, argv]`` pairs.  A record
is 16 hex digits of the SHA-256 of the exit code, stdout and stderr, or, for
an argv whose text argparse writes (help and usage errors, worded
differently by each Python version), the exit code alone.  The sections are
the golden corpus, ``tests/test_cli.py``'s ``LAYERS`` and refusal lists,
every distinct argv of seeds 1-4 of the three benchmark workloads, and argvs
that reach the rest of ``src/qgl``.  The argvs are copied into the file, so
that a change to the benchmark or to a test list leaves the corpus as it is.

Every argv runs through ``qgl.cli.run`` in one fresh interpreter whose
working directory is the root of the checkout, so a relative path in an
argv (a ``--config`` file) resolves there::

    python tests/argv_corpus.py           # name each argv whose answer differs; exit 1 if any
    python tests/argv_corpus.py --write   # record this checkout's answers
    python tests/argv_corpus.py --reach   # one traced pass: JSON of the argvs that
                                          # differ and the src/qgl code entered

A change that alters an answer rewrites the records with ``--write`` and
lists each changed argv, old -> new, with its reason.
"""

import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "tests", "argv_corpus.json")


def load():
    with open(CORPUS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump(sections):
    """The corpus file's text: one ``[record, argv]`` pair per line."""
    out = ["{"]
    for s, (name, pairs) in enumerate(sections.items()):
        out.append("  %s: [" % json.dumps(name))
        out += ["    %s%s" % (json.dumps(p), "," if i < len(pairs) - 1 else "")
                for i, p in enumerate(pairs)]
        out.append("  ]%s" % ("," if s < len(sections) - 1 else ""))
    return "\n".join(out + ["}"]) + "\n"


def answer(argv):
    """(exit code, stdout, stderr) of ``qgl.cli.run(argv)``."""
    from qgl.cli import run

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def record(result, exit_only):
    code, out, err = result
    if exit_only:
        return code
    data = ("%d\0%s\0%s" % (code, out, err)).encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def replay(sections, entered=None):
    """{section: [(record now, argv)]}; with ``entered`` a set, add to it the
    code object of every Python function called on the way."""
    def trace(frame, event, arg):
        entered.add(frame.f_code)

    previous = sys.gettrace()
    if entered is not None:
        sys.settrace(trace)
    try:
        return {name: [(record(answer(argv), isinstance(old, int)), argv) for old, argv in pairs]
                for name, pairs in sections.items()}
    finally:
        sys.settrace(previous)


def differences(sections, now):
    """'old -> new: argv' for each argv whose record changed."""
    return ["%s -> %s: %s" % (old, new, " ".join(argv))
            for name, pairs in sections.items()
            for (old, argv), (new, _) in zip(pairs, now[name]) if old != new]


def entered_definitions(codes):
    """"path:first line" of each code object of src/qgl, path relative to
    the root; the first line of a decorated function is its first decorator's."""
    pkg = os.path.join(SRC, "qgl") + os.sep
    return sorted({"%s:%d" % (os.path.relpath(c.co_filename, ROOT).replace(os.sep, "/"),
                              c.co_firstlineno)
                   for c in codes if c.co_filename.startswith(pkg)})


@functools.lru_cache(maxsize=None)
def traced_pass():
    """The corpus replayed once in a fresh interpreter under tracing:
    {"differ": [...], "entered": [...]} as ``--reach`` prints it."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--reach"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("the traced corpus pass failed:\n" + proc.stderr)
    return json.loads(proc.stdout)


def main(argv):
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    sections = load()
    if argv == ["--write"]:
        now = replay(sections)
        with open(CORPUS, "w", encoding="utf-8") as fh:
            fh.write(dump({name: [list(p) for p in pairs] for name, pairs in now.items()}))
        return 0
    if argv == ["--reach"]:
        codes = set()
        now = replay(sections, codes)
        print(json.dumps({"differ": differences(sections, now),
                          "entered": entered_definitions(codes)}))
        return 0
    if argv:
        sys.stderr.write("usage: python tests/argv_corpus.py [--write | --reach]\n")
        return 2
    differ = differences(sections, replay(sections))
    for line in differ:
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
