"""Documentation deliverables exist and stay in sync with the code."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


class TestDeliverables:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = ROOT / name
            assert path.exists(), name
            assert len(path.read_text()) > 1000, f"{name} looks stubby"

    def test_design_confirms_paper_identity(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "DSN 2015" in text
        assert "No title collision" in text

    def test_experiments_covers_every_table(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for marker in ("Table I", "Table II", "VI-C", "Ablations"):
            assert marker in text, marker

    def test_readme_quickstart_paths_exist(self):
        text = (ROOT / "README.md").read_text()
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("python examples/"):
                script = line.split()[1]
                assert (ROOT / script).exists(), script


class TestPublicApiDocumented:
    @pytest.mark.parametrize("module_name", [
        "repro", "repro.netsim", "repro.packets", "repro.statemachine",
        "repro.tcpstack", "repro.dccpstack", "repro.apps", "repro.proxy",
        "repro.core",
    ])
    def test_package_docstrings(self, module_name):
        module = __import__(module_name, fromlist=["_"])
        assert module.__doc__ and len(module.__doc__) > 80, module_name

    def test_every_public_symbol_has_a_docstring(self):
        import inspect

        import repro.core as core

        missing = []
        for name in core.__all__:
            obj = getattr(core, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    missing.append(name)
        assert not missing, f"undocumented public API: {missing}"

    def test_catalog_matches_paper_attack_count(self):
        from repro.core.attacks_catalog import KNOWN_ATTACKS

        assert len(KNOWN_ATTACKS) == 9  # the paper's Table II


class TestDocumentedFlags:
    def test_every_documented_flag_is_defined(self):
        # README.md and docs/*.md name only flags that some `repro`
        # subcommand defines; `--lease-*` names a family by its prefix
        import argparse
        import re

        from repro.cli import build_parser

        defined, parsers = set(), [build_parser()]
        while parsers:
            parser = parsers.pop()
            for action in parser._actions:
                defined.update(action.option_strings)
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
        unknown = []
        for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if "pytest" in line:
                    continue
                for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9]*(?:-[a-z0-9]+)*(?:-\*)?", line):
                    if flag.endswith("*"):
                        known = any(d.startswith(flag[:-1]) for d in defined)
                    else:
                        known = flag in defined
                    if not known:
                        unknown.append(f"{path.name}:{number}: {flag}")
        assert not unknown, unknown
