"""Pass/fail reports shared by the verification suites and the CLI."""

from dataclasses import asdict, dataclass


@dataclass
class CheckReport:
    name: str
    passed: bool
    scale: str
    counterexample: str | None = None

    def to_json(self) -> dict:
        return asdict(self)


def check_report(name: str, scale: str, counterexamples) -> CheckReport:
    """Fail at the first string ``counterexamples`` yields, without
    advancing it further; pass if it yields none."""
    counterexample = next(iter(counterexamples), None)
    return CheckReport(name, counterexample is None, scale, counterexample)
