"""Wire protocol: round-trips, version negotiation, malformed input."""

from __future__ import annotations

import json

import pytest

from repro.experiments.common import Cell
from repro.request import RunRequest
from repro.service import protocol
from repro.service.protocol import (PROTOCOL_VERSION, Accepted, Bye,
                                    CellEvent, CellSpec, ErrorReply,
                                    Hello, JobResult, ProtocolError,
                                    StatusReply, StatusRequest,
                                    SubmitCells, SubmitExperiments,
                                    SubmitQuantize, Welcome,
                                    check_version, decode, encode)

REQUEST = RunRequest(scale="smoke", jobs=4, timeout=30.0, retries=2)

MESSAGES = [
    Hello(client="t"),
    Welcome(server="s"),
    SubmitExperiments("j1", ("fig6", "table3"), REQUEST),
    SubmitCells("j2", (CellSpec("cg", "nos4", "fp32",
                                (("rescaled", True),)),), REQUEST),
    SubmitQuantize("j3", "posit16es1", (0.1, -2.5)),
    StatusRequest("j4"),
    Bye(),
    Accepted("j1", cells=76),
    CellEvent("j1", 3, "cg:nos4:fp32", "completed", duration=1.25,
              coalesced=True),
    JobResult("j1", "completed",
              experiments={"fig6": {"status": "completed",
                                    "csv_path": "/tmp/x.csv",
                                    "error": None}},
              cells={"completed": 70, "cached": 6, "coalesced": 3}),
    JobResult("j3", "completed", values=(0.25, 0.5)),
    StatusReply("j4", {"coalesce_hits": 7, "protocol": 1}),
    ErrorReply("j9", "busy", hint="retry with backoff"),
    ErrorReply(None, "protocol version mismatch"),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "message", MESSAGES, ids=lambda m: type(m).__name__)
    def test_encode_decode_identity(self, message):
        line = encode(message)
        assert line.endswith("\n") and "\n" not in line[:-1]
        assert decode(line) == message

    def test_wire_form_is_one_json_object(self):
        payload = json.loads(encode(Hello(client="x")))
        assert payload["type"] == "hello"
        assert payload["version"] == PROTOCOL_VERSION

    def test_decode_accepts_bytes(self):
        assert decode(encode(Bye()).encode("utf-8")) == Bye()

    def test_request_knobs_survive_the_wire(self):
        wire = decode(encode(SubmitExperiments("j", ("fig6",), REQUEST)))
        assert wire.request == REQUEST
        assert wire.request.run_scale.name == "smoke"

    def test_cells_field_is_typed_per_message(self):
        # "cells" is a CellSpec tuple on SubmitCells but an int on
        # Accepted and a tally dict on JobResult — each must round-trip
        assert decode(encode(Accepted("j", cells=7))).cells == 7
        tally = decode(encode(JobResult("j", "completed",
                                        cells={"cached": 3}))).cells
        assert tally == {"cached": 3}

    def test_encode_rejects_non_messages(self):
        with pytest.raises(ProtocolError, match="not a protocol"):
            encode({"type": "hello"})
        with pytest.raises(ProtocolError, match="not a protocol"):
            encode(REQUEST)


class TestCellSpec:
    def test_cell_round_trip(self):
        cell = Cell("cg", "nos4", "posit32es2",
                    (("rescaled", True), ("variant", "a")))
        spec = CellSpec.from_cell(cell)
        assert spec.to_cell() == cell
        assert CellSpec.from_json(spec.to_json()).to_cell() == cell

    def test_to_cell_restores_canonical_option_order(self):
        spec = CellSpec("cg", "nos4", "fp32",
                        (("z", 1), ("a", 2)))      # wire order arbitrary
        assert spec.to_cell().options == (("a", 2), ("z", 1))

    def test_malformed_spec_raises_with_hint(self):
        with pytest.raises(ProtocolError) as err:
            CellSpec.from_json({"kind": "cg"})     # matrix/fmt missing
        assert err.value.hint is not None


class TestVersioning:
    def test_current_version_accepted(self):
        check_version(PROTOCOL_VERSION)            # no raise

    @pytest.mark.parametrize("bad", [0, 1, PROTOCOL_VERSION + 1, "1", None],
                             ids=repr)
    def test_mismatch_rejected_with_hint(self, bad):
        with pytest.raises(ProtocolError, match="version mismatch") as e:
            check_version(bad)
        assert "upgrade" in e.value.hint

    def test_older_peer_hint_says_upgrade_client(self):
        for old in (0, 1):               # 1 sent grouped quantize values
            with pytest.raises(ProtocolError) as e:
                check_version(old)
            assert "upgrade the client" in e.value.hint


class TestMalformedInput:
    def test_not_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode("this is not json\n")

    def test_json_but_not_a_message(self):
        with pytest.raises(ProtocolError, match="not a protocol"):
            decode('["a", "list"]\n')
        with pytest.raises(ProtocolError, match="not a protocol"):
            decode('{"no_type": 1}\n')

    def test_unknown_type_lists_known_types(self):
        with pytest.raises(ProtocolError, match="unknown message") as e:
            decode('{"type": "frobnicate"}\n')
        assert "hello" in e.value.hint and "PROTOCOL_VERSION" in e.value.hint

    def test_unknown_field_requires_version_bump(self):
        with pytest.raises(ProtocolError, match="unknown field") as e:
            decode('{"type": "hello", "shiny_new_field": 1}\n')
        assert "PROTOCOL_VERSION" in e.value.hint

    def test_invalid_request_payload(self):
        line = ('{"type": "submit-experiments", "id": "j", '
                '"experiments": ["fig6"], '
                '"request": {"scale": "galactic"}}\n')
        with pytest.raises(ProtocolError, match="invalid run request"):
            decode(line)

    def test_request_must_be_an_object(self):
        line = ('{"type": "submit-experiments", "id": "j", '
                '"experiments": ["fig6"], "request": 42}\n')
        with pytest.raises(ProtocolError, match="malformed run request"):
            decode(line)

    def test_nested_quantize_values_rejected(self):
        line = ('{"type": "submit-quantize", "id": "j", '
                '"fmt": "fp16", "values": [[1.0, 2.0], [3.0]]}\n')
        with pytest.raises(ProtocolError, match="malformed values") as e:
            decode(line)
        assert "flat list of numbers" in e.value.hint

    def test_missing_required_field(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode('{"type": "accepted"}\n')       # id is required

    def test_every_message_type_is_registered(self):
        assert set(protocol._MESSAGES) == {
            m.TYPE for m in (Hello, Welcome, SubmitExperiments,
                             SubmitCells, SubmitQuantize, StatusRequest,
                             Bye, Accepted, CellEvent, JobResult,
                             StatusReply, ErrorReply)}
