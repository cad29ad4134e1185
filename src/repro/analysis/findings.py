"""Finding record emitted by analysis rules.

A finding pins one rule violation to one source location.  Findings are
plain data so reporters can render them as text or JSON without knowing
anything about the rules that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    path:
        Path of the offending file, as given to the analyzer.
    line:
        1-based line number of the violation.
    column:
        0-based column offset of the violation.
    rule_id:
        Identifier of the rule that fired, e.g. ``"RNG-001"``.
    message:
        Human-readable explanation of the violation and the expected
        repo idiom.
    trace:
        Optional ordered hop descriptions for whole-program findings
        (e.g. a PRIV-003 source→sink path); empty for module rules.
    """

    path: str
    line: int
    column: int
    rule_id: str
    message: str
    trace: tuple = ()

    def format(self) -> str:
        """Render the finding as one ``path:line:col: RULE message`` line.

        Trace hops, when present, follow on indented continuation lines
        so the source→sink path reads top to bottom.

        Returns
        -------
        str
            The formatted line(s).
        """
        head = (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.rule_id} {self.message}"
        )
        if not self.trace:
            return head
        hops = "\n".join(f"    {hop}" for hop in self.trace)
        return f"{head}\n{hops}"

    def to_dict(self) -> dict:
        """Return a JSON-serializable mapping of the finding.

        Returns
        -------
        dict
            Keys ``path``, ``line``, ``column``, ``rule_id`` and
            ``message``, plus ``trace`` when the finding carries a
            source→sink path.
        """
        document = {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule_id": self.rule_id,
            "message": self.message,
        }
        if self.trace:
            document["trace"] = list(self.trace)
        return document
