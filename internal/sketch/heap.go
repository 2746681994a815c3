package sketch

// BoundedHeap keeps the k smallest items seen under a caller-supplied
// ordering, in O(log k) per Push and O(k) memory — the building block
// of the query layer's per-shard ORDER BY top-k push-down. Internally
// it is a max-heap whose root is the current worst survivor, so an
// incoming item either evicts the root or is dropped on the spot.
//
// The zero BoundedHeap is not usable; construct with NewBoundedHeap.
// Not safe for concurrent use.
type BoundedHeap[T any] struct {
	k     int
	less  func(a, b T) bool
	items []T
}

// NewBoundedHeap builds a heap retaining the k smallest items by less.
// It panics when k is not positive (a bounded collection of nothing is
// a caller bug, not a state). Storage grows with the items actually
// retained, so a huge k over a small input costs what the input costs,
// not what k would.
func NewBoundedHeap[T any](k int, less func(a, b T) bool) *BoundedHeap[T] {
	if k <= 0 {
		panic("sketch: bounded heap size must be positive")
	}
	prealloc := k
	if prealloc > 1024 {
		prealloc = 1024
	}
	return &BoundedHeap[T]{k: k, less: less, items: make([]T, 0, prealloc)}
}

// Push offers an item, keeping only the k smallest.
func (h *BoundedHeap[T]) Push(x T) {
	if len(h.items) < h.k {
		h.items = append(h.items, x)
		h.siftUp(len(h.items) - 1)
		return
	}
	// Full: admit only if x beats the current worst (the root).
	if h.less(x, h.items[0]) {
		h.items[0] = x
		h.siftDown(0)
	}
}

// ReplaceTop overwrites the current worst survivor with x and restores
// heap order. It is Push for callers that have already decided x beats
// the root (Items()[0]) — typically by a cheaper comparison than less —
// and want to build x in the storage the evicted item owned.
func (h *BoundedHeap[T]) ReplaceTop(x T) {
	h.items[0] = x
	h.siftDown(0)
}

// Len returns the number of retained items (≤ k).
func (h *BoundedHeap[T]) Len() int { return len(h.items) }

// Cap returns k.
func (h *BoundedHeap[T]) Cap() int { return h.k }

// Items returns the retained items in heap order (no particular
// sorted order). The slice aliases the heap's storage.
func (h *BoundedHeap[T]) Items() []T { return h.items }

func (h *BoundedHeap[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		// Max-heap on less: parent must not be smaller than child.
		if !h.less(h.items[parent], h.items[i]) {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *BoundedHeap[T]) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		biggest := i
		if l < n && h.less(h.items[biggest], h.items[l]) {
			biggest = l
		}
		if r < n && h.less(h.items[biggest], h.items[r]) {
			biggest = r
		}
		if biggest == i {
			return
		}
		h.items[i], h.items[biggest] = h.items[biggest], h.items[i]
		i = biggest
	}
}
