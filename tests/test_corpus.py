"""The byte gate: every argv of the corpus of record (``argv_corpus.json``)
answers with the exit code, stdout and stderr recorded for it.

The replay is the traced pass that ``test_hygiene``'s reach rule reads, so
the corpus runs once per session.  A change that alters an answer records
the new one with ``python tests/argv_corpus.py --write``.
"""

import argv_corpus


def test_every_corpus_argv_answers_as_recorded():
    # each line names one argv: its record then -> now
    assert argv_corpus.traced_pass()["differ"] == []
