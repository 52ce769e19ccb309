"""Quote-free chargepoint CSV text read as bytes, with numpy.

A file that holds no quote and no CR not followed by LF has one record a
line, so it can be read in blocks of whole lines (line_blocks) and each
line cut at its commas without the csv module.  The readers here convert
fields of a strict ASCII form to columns straight from a block's bytes,
with no string made per field, and mark the fields of that form;
dataset._parse_block says what a line needs to be read this way, and sends
every other line to the csv parse.  A value read here equals what the csv
parse reads from the same text: a date through a civil-calendar formula
that accepts exactly the dates date() accepts, a clock of dataset._CLOCK's
form, and a decimal as an exact mantissa over an exact power of ten, which
rounds as float() rounds.

A block is read with PAD before and after it, and a field through one row
of windows(): the WINDOW bytes from one position on.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

# bytes per block, about; on the benchmark's predict fleet, blocks of 16 KiB
# parse at half the speed and blocks of 256 KiB about 10% faster, with four
# times the temporaries, which stand beside the parsed columns
PARSE_BLOCK = 1 << 16
# the most bytes a field is read from; a block is padded with as many on
# each side, so each window lies within it
WINDOW = 40
PAD = bytes(WINDOW)
# the most digits of an Energy or Duration field read here
DECIMAL_DIGITS = 15
# each HH:MM:SS character's worth in seconds, as a digit; the colons' is 0
CLOCK_WEIGHTS = np.array([36000, 3600, 0, 600, 60, 0, 10, 1])

# eight bytes of True, as a word
_TRUE_BYTES = np.uint64(0x0101010101010101)
_POWERS = np.array([10**k for k in range(18)], np.int64)
_POWERS_32 = _POWERS[:9].astype(np.int32)
# powers of ten that are exact as doubles
_TENS = np.array([10.0**k for k in range(DECIMAL_DIGITS + 1)])
# row n: the last n of 18 bytes, and the first n of 8 bytes
_TRAILING = np.array([[column >= 18 - n for column in range(18)] for n in range(19)])
_LEADING = np.array([[column < n for column in range(8)] for n in range(9)])
# days in each month of a common year, month 0 and 13 having none
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])
# a start's and an end's date and clock, and the comma after them, as each
# byte's lowest value and its span: hours from 24 to 29 are ruled out later
_INSTANTS_LOW = np.frombuffer(b"00/00/0000,00:00:00,00/00/0000,00:00:00,", np.uint8)
_INSTANTS_SPAN = np.frombuffer(b"99/99/9999,29:59:59,99/99/9999,29:59:59,", np.uint8) - _INSTANTS_LOW
# a date's and a clock's 20 bytes' worth, as digits, in its day, its month,
# its year and its clock, one row each
_INSTANT_WEIGHTS = np.array(
    [[10, 1] + [0] * 18,
     [0] * 3 + [10, 1] + [0] * 15,
     [0] * 6 + [1000, 100, 10, 1] + [0] * 10,
     [0] * 11 + CLOCK_WEIGHTS.tolist() + [0]],
    np.int32,
)


def one_record_a_line(block: bytes) -> bool:
    """Whether each line of block is one record: it holds no quote, and no
    CR that is not followed by LF."""
    return b'"' not in block and (b"\r" not in block or block.count(b"\r") == block.count(b"\r\n"))


def line_blocks(fh, size: int):
    """The next size bytes of the binary file fh, which end at a line end
    or at the file's end, in blocks of whole lines of about PARSE_BLOCK
    bytes; the file's last line may lack its line break.  A ValueError
    when a line need not be one record."""
    pieces: list[bytes] = []  # the start of a line, read before its end
    while True:
        data = fh.read(min(PARSE_BLOCK, size))
        size -= len(data)
        end = data.rfind(b"\n") + 1
        if data and not end:
            pieces.append(data)
            continue
        # at the end of the bytes, their last line
        block = b"".join([*pieces, data[:end]])
        if not one_record_a_line(block):
            raise ValueError("a line of the file need not be one record")
        if block:
            yield block
        if not data:
            return
        pieces = [data[end:]]


def windows(buf: np.ndarray) -> np.ndarray:
    """The rows of WINDOW bytes of buf, row i from its byte i on, as a
    read-only view."""
    shape = (len(buf) - WINDOW + 1, WINDOW)
    return np.lib.stride_tricks.as_strided(buf, shape, (1, 1), writeable=False)


def _all_in_rows(mask: np.ndarray) -> np.ndarray:
    """mask.all(axis=1) for a C-contiguous boolean matrix whose width is a
    multiple of 8, read 8 bytes at a time: numpy reduces short rows slowly."""
    return functools.reduce(operator.and_, mask.view(np.uint64).T) == _TRUE_BYTES


def _digits(view: np.ndarray, ends: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """The fields of the given lengths that end before ends, each as a row
    of width digit values (its bytes less b"0", wrapping below it),
    right-aligned, with a 0 for each byte before the field; a longer field
    keeps its last width bytes.  view holds windows() of the bytes."""
    return (view[ends - width, :width] - ord("0")) * _TRAILING[np.minimum(lengths, width), -width:]


def _integers(digits: np.ndarray) -> np.ndarray:
    """The integer each row of 10 to 18 digit values spells, as int64.
    Each row's last 9 digits and the ones before them are read in int32,
    which holds 9 digits: a wider copy of the rows would be the block
    parse's largest temporary."""
    high = digits[:, :-9] @ _POWERS_32[digits.shape[1] - 10 :: -1]
    return high.astype(np.int64) * 10**9 + digits[:, -9:] @ _POWERS_32[8::-1]


def id_words(buf: np.ndarray, begins: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each field of buf that begins at begins, of at most 8 bytes, as the
    64-bit word of its bytes padded with NUL bytes; a longer field gives
    its first 8 bytes' word."""
    return (windows(buf)[begins, :8] * _LEADING[np.minimum(lengths, 8)]).view(np.uint64).ravel()


def event_ids(view, ends, lengths) -> tuple[np.ndarray, np.ndarray]:
    """EventID fields of 1 to 18 ASCII digits as int64 values, and a mask
    of those fields (_digits' arguments)."""
    digits = _digits(view, ends, lengths, 18)
    ok = (lengths >= 1) & (lengths <= 18) & (digits <= 9).all(axis=1)
    return _integers(digits), ok


def decimals(view, ends, lengths) -> tuple[np.ndarray, np.ndarray]:
    r"""Energy and Duration fields of the form [0-9]+(\.[0-9]+)? with at
    most DECIMAL_DIGITS digits as float64 values, and a mask of those
    fields (_digits' arguments).

    A field's digits make an integer mantissa below 2**53, and its dot a
    power of ten below 2**53; both are exact as doubles, so their quotient
    rounds the field's value as float() rounds it (Clinger's fast path)."""
    width = DECIMAL_DIGITS + 1
    digits = _digits(view, ends, lengths, width)
    dots = digits == (ord(".") - ord("0")) % 256
    count = dots.sum(axis=1)
    has_dot = count == 1
    dot = np.where(has_dot, dots.argmax(axis=1), width - 1)
    frac = width - 1 - dot  # the digits after the dot
    ok = (
        (lengths >= 1)
        & (lengths - has_dot <= DECIMAL_DIGITS)
        & _all_in_rows((digits <= 9) | dots)
        # one dot at most, with a digit on each side
        & (count <= 1)
        & (~has_dot | ((dot > width - lengths) & (frac > 0)))
    )
    # the digits with the dot read as a 0, and then without it
    whole = _integers(digits * ~dots)
    mantissa = np.where(has_dot, whole // _POWERS[frac + 1] * _POWERS[frac] + whole % _POWERS[frac], whole)
    return mantissa / _TENS[frac], ok


def civil_days(day: np.ndarray, month: np.ndarray, year: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Days since 1970-01-01 of dates of the proleptic Gregorian calendar,
    by H. Hinnant's days_from_civil, and a mask of the dates date()
    accepts; the day, month and year must not be negative."""
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.minimum(month, 13)] + (leap & (month == 2))
    ok = (year >= 1) & (year <= 9999) & (day >= 1) & (day <= month_days)
    # years that start in March, so that a leap day ends its year
    y = year - (month <= 2)
    era = y // 400
    year_of_era = y - era * 400
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146097 + year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    return days - 719468, ok


def instants(view, begins) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The start and end, in naive seconds since 1970-01-01, of rows whose
    "DD/MM/YYYY,HH:MM:SS,DD/MM/YYYY,HH:MM:SS," bytes begin at begins, and a
    mask of the rows whose dates are of ASCII digits that date() accepts
    and whose clocks have the form (?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9].
    view holds windows() of the bytes."""
    texts = view[begins]
    ok = _all_in_rows((texts - _INSTANTS_LOW) <= _INSTANTS_SPAN)
    # the day, month, year and clock of the start and of the end; each
    # one's 20 bytes are read apart, in int32, so that the copy of them
    # numpy makes for the product is small
    digits = texts - ord("0")
    values = [_INSTANT_WEIGHTS @ digits[:, half].T for half in (slice(0, 20), slice(20, 40))]
    day, month, year, seconds = np.stack(values, axis=1).astype(np.int64)
    days, ok_days = civil_days(day, month, year)
    # hours of 24 and more pass the pattern
    ok &= (ok_days & (seconds < 86400)).all(axis=0)
    start, end = days * 86400 + seconds
    return start, end, ok
