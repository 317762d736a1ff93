"""The one checksum of blocks and WAL records: zlib's CRC-32.

CRC-32 with the reflected IEEE polynomial 0xEDB88320, computed by the
standard library's C code and kept in a 4-byte field. The check value
for b"123456789" is 0xCBF43926, and the CRC of b"" is 0. Every other
module takes its checksum from here, so the choice stays in one place.

The module and the name `crc32c` are kept because the benchmark imports
and traces them; renaming them waits for the benchmark's next change
(ROADMAP item 1).
"""

from zlib import crc32 as crc32c
