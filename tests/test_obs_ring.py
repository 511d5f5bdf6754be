"""RingBuffer: the list-append fast path and list parity."""

from repro.obs.ring import RingBuffer


class TestUnbounded:
    def test_behaves_like_a_list(self):
        ring = RingBuffer()
        for i in range(10):
            ring.append(i)
        assert list(ring) == list(range(10))
        assert len(ring) == 10
        assert ring.dropped == 0
        assert ring[0] == 0 and ring[-1] == 9
        assert ring[2:5] == [2, 3, 4]

    def test_append_is_list_append(self):
        ring = RingBuffer()
        assert ring.append == ring._items.append

    def test_equality_with_list(self):
        ring = RingBuffer()
        assert ring == []
        ring.extend([1, 2, 3])
        assert ring == [1, 2, 3]
        assert ring == (1, 2, 3)
        assert ring != [1, 2]

    def test_bool(self):
        ring = RingBuffer()
        assert not ring
        ring.append(1)
        assert ring
