"""Round-trip and format tests for the log writer/reader."""

from __future__ import annotations

import pytest

from repro.errors import LogFormatError
from repro.fastpath import OP_ACCESS, OP_CREATE, OP_END
from repro.tracelog.reader import loads_log, parse_lines, read_log
from repro.tracelog.records import TraceAccess
from repro.tracelog.writer import dumps_log, format_record, write_log


class TestRoundTrip:
    def test_small_log_round_trips(self, small_log):
        text = dumps_log(small_log)
        parsed = loads_log(text)
        assert parsed.benchmark == small_log.benchmark
        assert parsed.duration_seconds == small_log.duration_seconds
        assert parsed.code_footprint == small_log.code_footprint
        assert parsed.decompile().records == small_log.records

    def test_file_round_trip(self, small_log, tmp_path):
        path = tmp_path / "log.txt"
        write_log(small_log, path)
        parsed = read_log(path)
        assert parsed.decompile().records == small_log.records

    def test_repeat_default_omittable(self):
        parsed = parse_lines(
            [
                "# repro-tracelog v1",
                "# benchmark=x duration=1.0 footprint=10",
                "C 1 0 10 0",
                "A 2 0",
            ]
        )
        assert parsed.decompile().records[1] == TraceAccess(
            time=2, trace_id=0, repeat=1
        )


class TestFormat:
    def test_format_create(self):
        assert format_record((OP_CREATE, 5, 7, 242, 3, 0)) == "C 5 7 242 3"

    def test_format_access_with_repeat(self):
        assert format_record((OP_ACCESS, 9, 1, 0, 0, 4)) == "A 9 1 4"

    def test_format_end(self):
        assert format_record((OP_END, 100, 0, 0, 0, 0)) == "E 100"

    def test_blank_lines_and_comments_skipped(self):
        parsed = parse_lines(
            [
                "# repro-tracelog v1",
                "# benchmark=x duration=2.5 footprint=10",
                "",
                "# a comment",
                "C 1 0 10 0",
                "E 2",
            ]
        )
        assert len(parsed) == 2
        assert parsed.duration_seconds == 2.5


class TestErrors:
    def test_empty_input(self):
        with pytest.raises(LogFormatError):
            parse_lines([])

    def test_bad_magic(self):
        with pytest.raises(LogFormatError):
            parse_lines(["not a log", "# benchmark=x duration=1 footprint=1"])

    def test_missing_metadata(self):
        with pytest.raises(LogFormatError):
            parse_lines(["# repro-tracelog v1"])

    def test_metadata_missing_key(self):
        with pytest.raises(LogFormatError):
            parse_lines(["# repro-tracelog v1", "# benchmark=x duration=1"])

    @pytest.mark.parametrize(
        "header, named",
        [
            ("duration=abc footprint=1", "duration='abc'"),
            ("duration=1 footprint=1.5", "footprint='1.5'"),
        ],
    )
    def test_malformed_metadata_value(self, header, named):
        with pytest.raises(LogFormatError, match=named):
            parse_lines(["# repro-tracelog v1", f"# benchmark=x {header}"])

    def test_unknown_tag(self):
        with pytest.raises(LogFormatError):
            parse_lines(
                [
                    "# repro-tracelog v1",
                    "# benchmark=x duration=1 footprint=1",
                    "Z 1 2",
                ]
            )

    def test_malformed_record(self):
        with pytest.raises(LogFormatError):
            parse_lines(
                [
                    "# repro-tracelog v1",
                    "# benchmark=x duration=1 footprint=1",
                    "C 1 notanint 10 0",
                ]
            )

    def test_truncated_record(self):
        with pytest.raises(LogFormatError):
            parse_lines(
                [
                    "# repro-tracelog v1",
                    "# benchmark=x duration=1 footprint=1",
                    "C 1 0",
                ]
            )

    def test_validation_can_be_disabled(self):
        # Access to a never-created trace parses if validate=False.
        parsed = parse_lines(
            [
                "# repro-tracelog v1",
                "# benchmark=x duration=1 footprint=1",
                "A 1 99",
            ],
            validate=False,
        )
        assert len(parsed) == 1
        with pytest.raises(LogFormatError):
            parse_lines(
                [
                    "# repro-tracelog v1",
                    "# benchmark=x duration=1 footprint=1",
                    "A 1 99",
                ]
            )
