"""PatternSource: the bytes every verification compares against."""

from perfbench.fixtures import PERIOD, PatternSource, file_name

KIB = 1024


def _naive(source, file_id, offset, length):
    block = source.expected(file_id, 0, PERIOD)
    return bytes(block[(offset + i) % PERIOD] for i in range(length))


def test_slices_are_right_across_period_boundaries():
    source = PatternSource(2, 8 * 1024 * KIB)
    name = file_name(1)
    for offset, length in [
        (0, 10), (PERIOD - 3, 7), (PERIOD, 5), (2 * PERIOD - 1, 2),
        (64 * KIB, 64), (PERIOD - 1, PERIOD + 2),   # spans a whole period
    ]:
        assert source.expected(name, offset, length) == _naive(source, name, offset, length)
    long = source.expected(name, 3 * 64 * KIB, 1024 * KIB)   # the svc_scan read
    assert len(long) == 1024 * KIB
    assert long[:64] == _naive(source, name, 3 * 64 * KIB, 64)
    assert long[-64:] == _naive(source, name, 3 * 64 * KIB + 1024 * KIB - 64, 64)


def test_pages_and_files_differ_and_reads_repeat():
    source = PatternSource(2, 8 * 1024 * KIB)
    a, b = file_name(0), file_name(1)
    page0 = source.expected(a, 0, 64 * KIB)
    assert page0 != source.expected(a, 64 * KIB, 64 * KIB)   # wrong page is caught
    assert page0 != source.expected(b, 0, 64 * KIB)          # wrong file is caught
    assert page0 == PatternSource(1, 64 * KIB).expected(a, 0, 64 * KIB)


def test_reads_truncate_at_end_of_file_and_are_counted():
    source = PatternSource(1, 100)
    result = source.read(file_name(0), 90, 64)
    assert len(result.data) == 10 and result.latency == 0.0
    assert source.read(file_name(0), 100, 4).data == b""
    assert (source.reads, source.bytes) == (2, 10)
    assert source.file_length(file_name(0)) == 100
