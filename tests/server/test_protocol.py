"""Wire-vocabulary unit tests: framing, validation, error mapping."""

import pytest

from repro.errors import (EvaluationError, InputError, ParseError,
                          ReplayError, SafetyError, SchemaError,
                          StratificationError)
from repro.server.protocol import (ERROR_TYPES, REQUEST_TYPES, RequestError,
                                   ServerError, classify_exception, decode,
                                   encode, error_response, field,
                                   ok_response, positive_number)


class TestFraming:
    def test_encode_is_one_line(self):
        line = encode({"type": "ping", "id": 1})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1

    def test_round_trip(self):
        message = {"id": 3, "type": "run", "seed": 7,
                   "facts": {"emp": [["ann", 1]]}}
        assert decode(encode(message)) == message

    def test_encode_is_canonical(self):
        assert encode({"b": 1, "a": 2}) == encode({"a": 2, "b": 1})

    def test_decode_rejects_garbage(self):
        with pytest.raises(RequestError) as err:
            decode(b"{not json")
        assert err.value.error_type == "bad_request"

    def test_decode_rejects_non_object(self):
        with pytest.raises(RequestError) as err:
            decode(b"[1, 2]")
        assert err.value.error_type == "bad_request"

    def test_decode_accepts_str_and_bytes(self):
        assert decode('{"type": "ping"}') == decode(b'{"type": "ping"}')


class TestResponses:
    def test_ok_response_echoes_id(self):
        response = ok_response("req-9", {"pong": True})
        assert response == {"id": "req-9", "ok": True,
                            "result": {"pong": True}}

    def test_error_response_shape(self):
        response = error_response(4, "timeout", "too slow")
        assert response["ok"] is False
        assert response["error"] == {"type": "timeout",
                                     "message": "too slow"}

    def test_error_response_coerces_unknown_type(self):
        assert error_response(None, "nope", "x")["error"]["type"] \
            == "internal"


class TestErrorClassification:
    @pytest.mark.parametrize("exc,expected", [
        (ParseError("x"), "parse_error"),
        (SafetyError("x"), "safety_error"),
        (StratificationError("x"), "stratification_error"),
        (SchemaError("x"), "schema_error"),
        (ReplayError("x"), "replay_error"),
        (EvaluationError("x"), "evaluation_error"),
        (RequestError("unknown_session", "x"), "unknown_session"),
        (ValueError("x"), "internal"),
        (InputError("x"), "bad_request"),
    ])
    def test_mapping(self, exc, expected):
        assert classify_exception(exc) == expected

    def test_every_mapped_type_is_declared(self):
        for exc in (ParseError("x"), SafetyError("x"), ReplayError("x")):
            assert classify_exception(exc) in ERROR_TYPES

    def test_request_error_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            RequestError("not_a_type", "x")

    def test_server_error_carries_type(self):
        err = ServerError("timeout", "too slow")
        assert err.error_type == "timeout"
        assert "timeout" in str(err)


class TestFieldValidation:
    def test_required_missing(self):
        with pytest.raises(RequestError):
            field({"type": "run"}, "session", str)

    def test_type_mismatch(self):
        with pytest.raises(RequestError):
            field({"seed": "seven"}, "seed", int)

    def test_bool_is_not_int(self):
        with pytest.raises(RequestError):
            field({"seed": True}, "seed", int)

    def test_default(self):
        assert field({}, "mode", str, required=False, default="run") \
            == "run"

    def test_positive_number(self):
        assert positive_number({"timeout": 2}, "timeout") == 2.0
        assert positive_number({}, "timeout", default=1.5) == 1.5
        for bad in (0, -1, True, "x"):
            with pytest.raises(RequestError):
                positive_number({"timeout": bad}, "timeout")


def test_request_types_are_distinct_and_nonempty():
    assert len(REQUEST_TYPES) == len(set(REQUEST_TYPES))
    assert "run" in REQUEST_TYPES and "prepare" in REQUEST_TYPES
