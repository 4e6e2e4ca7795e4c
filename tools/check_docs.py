#!/usr/bin/env python
"""Docs sanity checker (CI's docs job, also runnable locally).

Verifies, without any third-party dependency:

1. every relative markdown link in README.md and docs/**/*.md resolves
   to a real file or directory in the repository (anchors are stripped;
   ``http(s)``/``mailto`` links are skipped);
2. every file path mentioned in backticks that *looks* repo-relative
   (starts with a known top-level directory and has an extension)
   exists — catching docs that drift after a refactor;
3. every example script in ``examples/`` is linked from the README's
   examples table, so new examples cannot ship undocumented;
4. the configuration reference (``docs/configuration.md``) documents
   every ``CampaignConfig`` TOML section and key — so a knob added to
   the config dataclass cannot ship undocumented;
5. documented defaults track the live config: every key's *default
   value* as rendered by ``CampaignConfig()`` (via its ``to_dict``
   TOML form) must appear inside that key's section of the reference —
   so flipping a default (the engine spec, a compile-store bound)
   without updating the docs fails CI;
6. the scenario reference (``docs/scenarios.md``) documents every
   defect class, every ``FamilySpec`` field, and the current sweep
   record schema version;
7. the service reference (``docs/service.md``) documents every
   endpoint in the daemon's live ``SERVICE_ENDPOINTS`` table and the
   current stats schema version; every preset in
   ``examples/presets/`` parses as a ``CampaignConfig``, matches the
   CLI's ``preset:`` name registry, and is documented in the
   configuration reference.

Exit status 0 = all good; 1 = problems (each printed with file:line).

Run:  python tools/check_docs.py
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

#: markdown inline link: [text](target)
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: backticked repo path, e.g. `src/repro/formal/satspace.py`
CODE_PATH = re.compile(
    r"`((?:src|tests|examples|benchmarks|docs|tools)/[\w./-]+\.\w+)`"
)
EXTERNAL = ("http://", "https://", "mailto:")


def doc_files():
    docs = [REPO / "README.md"]
    docs_dir = REPO / "docs"
    if docs_dir.is_dir():
        docs.extend(sorted(docs_dir.rglob("*.md")))
    return [path for path in docs if path.is_file()]


def check_links(path, problems):
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for match in LINK.finditer(line):
            target = match.group(1).split("#", 1)[0]
            if not target or target.startswith(EXTERNAL):
                continue
            if target.startswith("<"):
                continue  # placeholder like <this repo>
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(REPO)}:{lineno}: "
                    f"broken link -> {target}"
                )
        for match in CODE_PATH.finditer(line):
            if not (REPO / match.group(1)).exists():
                problems.append(
                    f"{path.relative_to(REPO)}:{lineno}: "
                    f"missing path referenced in backticks -> "
                    f"{match.group(1)}"
                )


def check_config_reference(problems):
    """The config reference must track the config schema, not trail it."""
    doc = REPO / "docs" / "configuration.md"
    if not doc.is_file():
        problems.append("docs/configuration.md: missing (the "
                        "CampaignConfig reference)")
        return
    sys.path.insert(0, str(REPO / "src"))
    try:
        from repro.orchestrate.config import CONFIG_SCHEMA, CampaignConfig
    finally:
        sys.path.pop(0)
    text = doc.read_text()
    defaults = CampaignConfig().to_dict()
    for section, keys in CONFIG_SCHEMA.items():
        # keys are checked inside their own section's slice (heading
        # to next heading): [cache] path must not satisfy a deleted
        # [checkpoint] path row just because the word appears earlier
        heading = text.find(f"[{section}]")
        if heading < 0:
            problems.append(
                f"docs/configuration.md: section [{section}] of the "
                f"campaign config is undocumented"
            )
            continue
        end = text.find("\n#", heading)
        section_text = text[heading:end if end >= 0 else len(text)]
        for key in keys:
            if f"`{key}`" not in section_text:
                problems.append(
                    f"docs/configuration.md: config key "
                    f"[{section}] {key} is undocumented"
                )
                continue
            # documented default must match the live one: render the
            # default the way the reference table does and require it
            # on the key's own table row — not merely somewhere in the
            # section, where another key's equal value would mask a
            # drift (absent defaults — no-cache paths, unbounded
            # knobs — have no canonical rendering and are skipped)
            if key not in defaults.get(section, {}):
                continue
            value = defaults[section][key]
            if isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, str):
                rendered = f'"{value}"'
            else:
                rendered = str(value)
            key_rows = [line for line in section_text.splitlines()
                        if f"`{key}`" in line]
            if not any(f"`{rendered}`" in row for row in key_rows):
                problems.append(
                    f"docs/configuration.md: [{section}] {key} "
                    f"default drifted — live default is `{rendered}`"
                )


def check_scenario_reference(problems):
    """docs/scenarios.md must track the scenario layer's live
    vocabulary: every defect class, every ``FamilySpec`` field, and
    the current record schema version — so a new class or a schema
    bump cannot ship undocumented."""
    doc = REPO / "docs" / "scenarios.md"
    if not doc.is_file():
        problems.append("docs/scenarios.md: missing (the scenario "
                        "sweep reference)")
        return
    sys.path.insert(0, str(REPO / "src"))
    try:
        import dataclasses

        from repro.chip.defects import DEFECT_CLASSES
        from repro.scenario.family import FamilySpec
        from repro.scenario.sweep import SWEEP_SCHEMA
    finally:
        sys.path.pop(0)
    text = doc.read_text()
    for defect_class in DEFECT_CLASSES:
        if f"`{defect_class}`" not in text:
            problems.append(
                f"docs/scenarios.md: defect class {defect_class!r} "
                f"is undocumented"
            )
    for field in dataclasses.fields(FamilySpec):
        if f"`{field.name}`" not in text:
            problems.append(
                f"docs/scenarios.md: FamilySpec field "
                f"{field.name!r} is undocumented"
            )
    if f"`\"{SWEEP_SCHEMA}\"`" not in text:
        problems.append(
            f"docs/scenarios.md: record schema version "
            f"{SWEEP_SCHEMA!r} is not documented — did it bump "
            f"without a doc update?"
        )


def check_service_reference(problems):
    """docs/service.md must track the daemon's live endpoint table,
    and the preset library must parse, match the CLI's registry, and
    be documented — so a new endpoint or preset cannot ship
    undocumented, and a preset edit that breaks parsing fails here
    instead of at serve time."""
    doc = REPO / "docs" / "service.md"
    if not doc.is_file():
        problems.append("docs/service.md: missing (the "
                        "verification-as-a-service reference)")
        return
    sys.path.insert(0, str(REPO / "src"))
    try:
        from repro.cli import PRESET_NAMES
        from repro.orchestrate.config import CampaignConfig, ConfigError
        from repro.orchestrate.stats import STATS_SCHEMA
        from repro.service.api import SERVICE_ENDPOINTS
    finally:
        sys.path.pop(0)
    text = doc.read_text()
    for method, path, _summary in SERVICE_ENDPOINTS:
        # one table row must name both halves of the endpoint
        if not any(f"`{method}`" in line and f"`{path}`" in line
                   for line in text.splitlines()):
            problems.append(
                f"docs/service.md: endpoint {method} {path} is "
                f"undocumented"
            )
    if f"`\"{STATS_SCHEMA}\"`" not in text:
        problems.append(
            f"docs/service.md: stats schema {STATS_SCHEMA!r} is not "
            f"documented — did it bump without a doc update?"
        )
    config_doc = (REPO / "docs" / "configuration.md").read_text() \
        if (REPO / "docs" / "configuration.md").is_file() else ""
    preset_dir = REPO / "examples" / "presets"
    on_disk = sorted(path.stem for path in preset_dir.glob("*.toml")) \
        if preset_dir.is_dir() else []
    if on_disk != sorted(PRESET_NAMES):
        problems.append(
            f"examples/presets/: files {on_disk} do not match the "
            f"CLI preset registry {sorted(PRESET_NAMES)}"
        )
    for name in on_disk:
        try:
            CampaignConfig.load(preset_dir / f"{name}.toml")
        except (ConfigError, OSError) as exc:
            problems.append(
                f"examples/presets/{name}.toml: does not parse as a "
                f"CampaignConfig -> {exc}"
            )
        if f"`preset:{name}`" not in config_doc:
            problems.append(
                f"docs/configuration.md: preset 'preset:{name}' is "
                f"undocumented"
            )


def check_examples_table(problems):
    readme = (REPO / "README.md").read_text()
    for script in sorted((REPO / "examples").glob("*.py")):
        rel = f"examples/{script.name}"
        if rel not in readme:
            problems.append(
                f"README.md: examples table is missing {rel}"
            )


def main():
    problems = []
    for path in doc_files():
        check_links(path, problems)
    check_examples_table(problems)
    check_config_reference(problems)
    check_scenario_reference(problems)
    check_service_reference(problems)
    if problems:
        print(f"{len(problems)} documentation problem(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"docs ok: {len(doc_files())} file(s) checked, "
          f"links, examples table, and config reference all resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
