"""repro.compile: the execution-mode name recorded in benchmark provenance.

Every model runs on the one eager path; there is no other mode to
select.  :func:`active_mode` is kept only because the frozen
``perfbench/harness.py`` provenance imports it to record a
``compile_mode`` field.  Nothing under ``src/`` calls it.
"""

__all__ = ["active_mode"]


def active_mode() -> str:
    """The execution mode every model runs in: always ``"eager"``."""
    return "eager"
