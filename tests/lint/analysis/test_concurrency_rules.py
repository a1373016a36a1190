"""Fixture-driven tests of the REP300–REP305 concurrency-safety rules.

``tests/lint/fixtures/ownership/`` is an eleven-module miniature of the
real stack — ``eng`` (engine) < ``net`` (transport) < ``proto_*``
(confined protocol layer) < ``app``/``app_shared`` (wiring) — built so
each rule has one bad module proving it fires and a clean module (or
in-file good case) proving it stays quiet: a live cross-node alias, an
undeclared shared mutable service next to a declared one, identity-
derived ordering beside stable ordering, an engine-closing payload
beside a plain one, direct and inherited blocking calls, and set order
escaping through a call chain.

Alongside the per-rule expectations this module carries the tree-wide
REP3xx gate over the real sources, the ``--ownership-report`` golden
test, the CLI round-trip through a TOML config (including the
``[tool.repro-lint.ownership]`` table), and the runtime budget covering
the ownership pass.
"""

from __future__ import annotations

import collections
import json
import pathlib
import shutil
import time

import pytest

from repro.lint import lint_paths
from repro.lint.cli import main, ownership_report_paths
from repro.lint.config import (
    LayersConfig,
    LintConfig,
    OwnershipConfig,
    load_config,
)
from repro.lint.report import render_ownership_json, render_ownership_text

REPO = pathlib.Path(__file__).parents[3]
OWN = pathlib.Path(__file__).parents[1] / "fixtures" / "ownership"
GOLDEN = OWN / "OWNERSHIP_REPORT.golden"

CONCURRENCY_CODES = tuple(f"REP30{i}" for i in range(6))

PROTO_MODULES = (
    "proto_own_clean",
    "proto_alias",
    "proto_shared",
    "proto_identity",
    "proto_payload",
    "proto_blocking",
    "proto_chain",
)

EXPECTED = {
    "proto_alias.py": ["REP300", "REP300"],
    "app_shared.py": ["REP301"],
    "proto_identity.py": ["REP302", "REP302"],
    "proto_payload.py": ["REP303"],
    "proto_blocking.py": ["REP304", "REP304"],
    "proto_chain.py": ["REP305"],
}

CLEAN = ("eng.py", "net.py", "proto_own_clean.py", "app.py",
         "proto_shared.py")


def ownership_config() -> LintConfig:
    return LintConfig(
        root=OWN,
        layers=LayersConfig(
            order=("engine", "transport", "proto", "app"),
            members=(
                ("engine", ("eng",)),
                ("transport", ("net",)),
                ("proto", PROTO_MODULES),
                ("app", ("app", "app_shared")),
            ),
            confined=("proto",),
            engine_touchpoints=(
                "Agent.on_timer",
                "Chooser.on_timer",
                "Chooser.tiebreak",
                "Chooser.pick_stable",
            ),
        ),
        ownership=OwnershipConfig(shared_services=("DeclaredBoard",)),
    )


def lint_ownership_tree():
    return lint_paths([OWN], ownership_config(), select=CONCURRENCY_CODES)


def test_every_rule_fires_exactly_where_expected():
    result = lint_ownership_tree()
    assert result.errors == []
    by_file = collections.defaultdict(list)
    for finding in result.findings:
        by_file[pathlib.Path(finding.path).name].append(finding.code)
    rendered = "\n".join(f.render() for f in result.findings)
    assert dict(by_file) == EXPECTED, rendered


@pytest.mark.parametrize("filename", CLEAN)
def test_clean_modules_stay_clean(filename):
    result = lint_ownership_tree()
    offenders = [
        finding
        for finding in result.findings
        if pathlib.Path(finding.path).name == filename
    ]
    assert offenders == [], "\n".join(f.render() for f in offenders)


def test_declared_shared_service_is_not_a_finding():
    # DeclaredBoard is shared and mutated exactly like Registry; only the
    # [tool.repro-lint.ownership] declaration separates them.  Dropping
    # the declaration must surface it as a second REP301.
    base = ownership_config()
    stripped = LintConfig(
        root=base.root,
        layers=base.layers,
        ownership=OwnershipConfig(),
    )
    result = lint_paths([OWN], stripped, select=("REP301",))
    messages = [f.message for f in result.findings]
    assert len(messages) == 2, "\n".join(messages)
    assert any("DeclaredBoard" in m for m in messages)
    assert any("Registry" in m for m in messages)


def test_ownership_report_matches_golden():
    report = ownership_report_paths([OWN], ownership_config())
    text = render_ownership_text(report)
    if not text.endswith("\n"):
        text += "\n"
    assert text == GOLDEN.read_text(), (
        "ownership report drifted from the golden; if the change is "
        "intentional, regenerate tests/lint/fixtures/ownership/"
        "OWNERSHIP_REPORT.golden from render_ownership_text()"
    )


def test_ownership_report_json_is_structured():
    report = ownership_report_paths([OWN], ownership_config())
    payload = json.loads(render_ownership_json(report))
    assert payload["files_analyzed"] == 11
    owners = {
        entry["class"]: entry["owners"]
        for entry in payload["per_node_classes"]
    }
    # The substrate references classify as engine-owned, node state as
    # node-local, and the shared registry as shared.
    assert owners["proto_own_clean.Agent"]["sim"] == "engine"
    assert owners["proto_own_clean.Agent"]["inbox"] == "node-local"
    assert owners["proto_shared.Node"]["registry"] == "shared"
    assert owners["proto_payload.Tether"]["engine"] == "engine"
    assert "partition_seams" not in payload
    services = {s["object"]: s for s in payload["shared_services"]}
    registry = services["proto_shared.Registry"]
    assert registry["mutated"] and not registry["declared"]
    assert services["proto_shared.DeclaredBoard"]["declared"]
    kinds = {edge["kind"] for edge in payload["cross_node_edges"]}
    assert kinds == {"send", "schedule"}


def test_cli_ownership_report_round_trips_toml_config(tmp_path, capsys):
    for source in OWN.glob("*.py"):
        shutil.copy(source, tmp_path / source.name)
    proto = ", ".join(f'"{name}"' for name in PROTO_MODULES)
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro-lint.layers]\n"
        'order = ["engine", "transport", "proto", "app"]\n'
        'confined = ["proto"]\n'
        'engine-touchpoints = ["Agent.on_timer", "Chooser.on_timer", '
        '"Chooser.tiebreak", "Chooser.pick_stable"]\n'
        "\n"
        "[tool.repro-lint.layers.members]\n"
        'engine = ["eng"]\n'
        'transport = ["net"]\n'
        f"proto = [{proto}]\n"
        'app = ["app", "app_shared"]\n'
        "\n"
        "[tool.repro-lint.ownership]\n"
        'shared-services = ["DeclaredBoard"]\n'
    )
    exit_code = main(
        [
            "--ownership-report",
            "--format=json",
            "--config",
            str(tmp_path / "pyproject.toml"),
            str(tmp_path),
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert payload["files_analyzed"] == 11
    declared = [
        service
        for service in payload["shared_services"]
        if service["declared"]
    ]
    assert [s["object"] for s in declared] == ["proto_shared.DeclaredBoard"]


def test_cli_ownership_report_text_lists_sections(tmp_path, capsys):
    for source in OWN.glob("*.py"):
        shutil.copy(source, tmp_path / source.name)
    exit_code = main(["--ownership-report", "--isolated", str(tmp_path)])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "# Node ownership" in out
    assert "# Cross-node edges" in out
    assert "# Shared services" in out
    assert "# Partition-cut seams" not in out
    assert "module(s) analyzed" in out


def test_repo_tree_is_rep3xx_clean():
    # The real sources must satisfy the ownership discipline they declare
    # — with the pyproject config (shared services included), and with
    # zero inline suppressions: real findings were fixed in code.
    config = load_config(REPO / "pyproject.toml")
    result = lint_paths(
        [REPO / "src", REPO / "benchmarks", REPO / "examples"],
        config,
        select=CONCURRENCY_CODES,
    )
    assert result.errors == []
    assert result.findings == [], "\n".join(
        f.render() for f in result.findings
    )


def test_no_inline_rep3xx_suppressions_in_tree():
    # The acceptance contract: shared services are declared in config,
    # never waved through with inline pragmas.
    offenders = []
    for path in sorted((REPO / "src").rglob("*.py")):
        text = path.read_text()
        if "disable=REP3" in text.replace(" ", ""):
            offenders.append(str(path))
    assert offenders == []


def test_ownership_analyzer_runtime_budget():
    # The full whole-program pass (REP1xx + REP2xx + REP3xx + both report
    # models) over the source tree must stay interactive: under 10 s.
    config = load_config(REPO / "pyproject.toml")
    start = time.perf_counter()
    result = lint_paths(
        [REPO / "src", REPO / "benchmarks", REPO / "examples"],
        config,
        analysis=True,
    )
    report = ownership_report_paths(
        [REPO / "src", REPO / "benchmarks", REPO / "examples"], config
    )
    elapsed = time.perf_counter() - start
    assert result.errors == []
    assert report["files_analyzed"] > 0
    assert elapsed < 10.0, f"analysis took {elapsed:.2f}s (budget 10s)"
