package pipeline

// ring is a growable power-of-two circular FIFO. It replaces the
// compacting-append queues (IDQ, ROB) of the original implementation:
// push/pop are O(1) with no element copying at compaction boundaries, and
// once the buffer has grown to the pipeline's high-water mark the queue
// never allocates again for the rest of the run.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// len returns the number of queued elements.
func (r *ring[T]) len() int { return r.n }

// empty reports whether the ring holds no elements.
func (r *ring[T]) empty() bool { return r.n == 0 }

// push copies *v to the tail, growing the buffer when full. Taking a
// pointer keeps large elements to the one copy into the buffer.
func (r *ring[T]) push(v *T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = *v
	r.n++
}

// front returns a pointer to the head element; the pointer is only valid
// until the next push (which may grow the buffer).
func (r *ring[T]) front() *T {
	return &r.buf[r.head]
}

// at returns a pointer to the i-th element from the head (0 = front).
func (r *ring[T]) at(i int) *T {
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// advance drops the head element, zeroing its slot so pointer fields
// (lifecycle traces, live-out slices) do not pin garbage.
func (r *ring[T]) advance() {
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// reset empties the ring, zeroing live slots but keeping capacity.
func (r *ring[T]) reset() {
	var zero T
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&(len(r.buf)-1)] = zero
	}
	r.head, r.n = 0, 0
}

func (r *ring[T]) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 64
	}
	nb := make([]T, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}
