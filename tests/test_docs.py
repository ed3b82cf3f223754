"""The schema blocks of the docs name the fields the code declares, in order.

``docs/PROTOCOL.md`` lists every wire record and message payload and every
error code and names the current protocol version, and ``docs/SCENARIOS.md`` every ``community`` and ``task`` key. A
field or code added to or removed from the code but not the docs, or the
other way round, fails here.
"""

import re
from dataclasses import fields
from pathlib import Path

from communityfl import flcore
from communityfl.netproto import PAYLOAD_SCHEMAS, PROTOCOL_VERSION, RECORD_SCHEMAS
from communityfl.scenarios import CommunitySpec, TaskSpec

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"


def _block_after(text: str, heading: str) -> str:
    """The first fenced block after ``heading``, without its comments."""
    after = text[text.index(heading) :]
    block = after.split("```\n", 2)[1]
    return "\n".join(line.split("#", 1)[0] for line in block.splitlines())


def _entries(block: str) -> dict[str, list[str]]:
    """``name {field: type, bare_field, optional?, ...}`` entries of a block:
    each entry's top-level field names, in order."""
    entries = {}
    for match in re.finditer(r"(\w+)\s*\{", block):
        depth, start, names = 1, match.end(), []
        for i in range(match.end(), len(block)):
            char = block[i]
            depth += {"{": 1, "}": -1}.get(char, 0)
            if (char == "," and depth == 1) or depth == 0:
                part = block[start:i].strip()
                if part:
                    names.append(part.split(":", 1)[0].strip().rstrip("?"))
                start = i + 1
            if depth == 0:
                break
        entries[match.group(1)] = names
    return entries


def test_protocol_doc_lists_every_record_and_payload_field_in_order():
    text = (DOCS / "PROTOCOL.md").read_text()
    table = text[text.index("| document | record class |") :].split("\n\n", 1)[0]
    class_of = dict(re.findall(r"^\| `(\w+)` \| `(\w+)` \|$", table, re.MULTILINE))
    by_name = {cls.__name__: cls for cls in RECORD_SCHEMAS}
    records = _entries(_block_after(text, "### Shared documents"))
    payloads = _entries(_block_after(text, "### Message payloads"))
    documented = {by_name[class_of[name]]: names for name, names in records.items()}
    documented[flcore.TrainRequest] = payloads["TrainRequest"]  # the payload is the record
    assert {cls: list(schema) for cls, schema in RECORD_SCHEMAS.items()} == documented
    assert {t.value: list(schema) for t, schema in PAYLOAD_SCHEMAS.items()} == payloads


def test_protocol_doc_names_the_current_version():
    text = (DOCS / "PROTOCOL.md").read_text()
    envelope = text[text.index("## Envelope") :].split("\n\n", 3)[2]
    assert re.findall(r"currently `(\d+)`", envelope) == [str(PROTOCOL_VERSION)]


def test_scenarios_doc_lists_every_community_and_task_key_in_order():
    entries = _entries(_block_after((DOCS / "SCENARIOS.md").read_text(), "## Sub-documents"))
    assert entries["community"] == [f.name for f in fields(CommunitySpec)]
    assert entries["task"] == [f.name for f in fields(TaskSpec)]


# the places the source names an error code: a ProtocolError's first argument,
# handle_envelope's mapping of a domain error, and an error_envelope built
# with a literal code
_CODE_SITES = [
    r'ProtocolError\(\s*"(\w+)"',
    r'code, message = "(\w+)"',
    r'error_envelope\([^,()]+,\s*"(\w+)"',
]


def test_protocol_doc_lists_every_error_code_the_source_emits():
    text = (DOCS / "PROTOCOL.md").read_text()
    listed = text[text.index("### Error codes") :].split("\n\n", 2)[1]
    documented = set(re.findall(r"`(\w+)`", listed))
    source = "\n".join(p.read_text() for p in (ROOT / "src" / "communityfl").glob("*.py"))
    per_site = [set(re.findall(site, source)) for site in _CODE_SITES]
    assert all(per_site)  # a pattern that no longer matches would hide codes
    assert documented == set().union(*per_site)
