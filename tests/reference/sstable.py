"""``SSTable.get`` as a search: bloom test, index bisect, page read,
in-page bisect — for every key, held or not.  :meth:`SSTable.get`
answers a held key from the table's slot map instead; this is what it
must stay equal to on every returned value, recorded read and simulated
number (a lookup's footprint is its ``read_page`` calls, nothing else).
"""

import bisect


def reference_get(table, key, reads=None):
    if not table.may_contain(key):
        return (False, None)
    page = table._page_for_key(key)
    if reads is not None:
        reads.append((table.file, page))
    data = table.fs.read_page(table.file, page)
    # A data page is flat, ``(k0, v0, k1, v1, ...)``: decode it to
    # ``(key, value)`` records.
    entries = list(zip(data[::2], data[1::2]))
    pos = bisect.bisect_left(entries, (key,))
    if pos < len(entries) and entries[pos][0] == key:
        return (True, entries[pos][1])
    return (False, None)
