// Package intmap provides an open-addressed hash table from non-negative
// int64 keys to int64 values, specialised for the simulator's hot paths
// (page → frame in the page cache, page → stack position in the LRU
// stack simulator). Compared with a built-in map[int64]T it avoids
// per-bucket overflow pointers and interface boxing, and supports O(1)
// clear-with-capacity reuse.
//
// Layout: each slot holds a key next to its value (16 bytes), and the
// table is an array of 64-byte groups of four slots. A key's home slot is
// the Fibonacci hash of key>>2 picking the group, plus key&3 as the offset
// inside it, so the four consecutive pages of an aligned run share one
// cache line — a sequential scan misses once per four pages, and a
// lookup that finds its key in its home group touches a single line.
// Collisions use linear probing slot by slot (across groups, wrapping at
// the end) with backward-shift deletion, so there are no tombstones.
// Load is kept at or below 1/2, so probe sequences stay short even under
// adversarial key sets.
//
// Keys must be ≥ 0; the table reserves -1 internally as the empty slot
// marker.
//
// This is the repo's only page-keyed map. The one other open-addressed
// table, the depth histogram's per-period first-touch set (pageSet in
// internal/lrusim/hist.go), is an insert-only set with no values.
package intmap

const emptySlot = -1

// fibMult is 2^64 / φ, the multiplicative constant of Fibonacci hashing;
// it scrambles consecutive group numbers (the common key pattern here)
// into well-spread groups.
const fibMult = 0x9E3779B97F4A7C15

// groupBits is log2 of the slots per group: 4 slots of 16 bytes fill
// one 64-byte cache line.
const groupBits = 2

// minSlots is the smallest table. Power-of-two tables of at least 256
// bytes land in power-of-two size classes (or page-aligned spans), so
// every group starts on a cache-line boundary.
const minSlots = 16

type slot struct{ key, val int64 }

// Map is an open-addressed int64 → int64 hash table. The zero value is
// not ready for use; call New.
type Map struct {
	slots []slot
	shift uint // 64 - log2(groups)
	n     int
}

// New returns a map sized to hold at least capacity entries without
// growing.
func New(capacity int) *Map {
	m := &Map{}
	size := minSlots
	for size < 2*capacity {
		size <<= 1
	}
	m.init(size)
	return m
}

func (m *Map) init(size int) {
	m.slots = make([]slot, size)
	for i := range m.slots {
		m.slots[i].key = emptySlot
	}
	shift := uint(64)
	for s := size >> groupBits; s > 1; s >>= 1 {
		shift--
	}
	m.shift = shift
	m.n = 0
}

// Len returns the number of entries.
func (m *Map) Len() int { return m.n }

// home returns key's home slot: its group's first slot plus key&3.
func (m *Map) home(key int64) uint64 {
	g := (uint64(key>>groupBits) * fibMult) >> m.shift
	return g<<groupBits | uint64(key)&(1<<groupBits-1)
}

// slot returns the index holding key, or -1 if absent.
func (m *Map) slot(key int64) int {
	mask := uint64(len(m.slots) - 1)
	for i := m.home(key); ; i = (i + 1) & mask {
		switch m.slots[i].key {
		case key:
			return int(i)
		case emptySlot:
			return -1
		}
	}
}

// Get returns the value stored for key.
func (m *Map) Get(key int64) (int64, bool) {
	if key < 0 {
		return 0, false
	}
	if i := m.slot(key); i >= 0 {
		return m.slots[i].val, true
	}
	return 0, false
}

// Update replaces the value of a present key and returns the value it
// held, in one probe; for an absent key it changes nothing and returns
// ok == false.
func (m *Map) Update(key, val int64) (old int64, ok bool) {
	if key < 0 {
		return 0, false
	}
	mask := uint64(len(m.slots) - 1)
	for i := m.home(key); ; i = (i + 1) & mask {
		s := &m.slots[i]
		switch s.key {
		case key:
			old, s.val = s.val, val
			return old, true
		case emptySlot:
			return 0, false
		}
	}
}

// Put inserts or replaces the value for key. key must be ≥ 0.
func (m *Map) Put(key, val int64) {
	if key < 0 {
		panic("intmap: negative key")
	}
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	mask := uint64(len(m.slots) - 1)
	for i := m.home(key); ; i = (i + 1) & mask {
		s := &m.slots[i]
		switch s.key {
		case key:
			s.val = val
			return
		case emptySlot:
			*s = slot{key, val}
			m.n++
			return
		}
	}
}

// Delete removes key, reporting whether it was present. Deletion uses
// backward shifting: later entries of the probe chain slide into the
// hole, so lookups never need tombstones.
func (m *Map) Delete(key int64) bool {
	if key < 0 {
		return false
	}
	i := m.slot(key)
	if i < 0 {
		return false
	}
	m.n--
	mask := uint64(len(m.slots) - 1)
	hole := uint64(i)
	for j := (hole + 1) & mask; ; j = (j + 1) & mask {
		k := m.slots[j].key
		if k == emptySlot {
			break
		}
		// Entry j may fill the hole only if its home position lies
		// cyclically at or before the hole; otherwise moving it would
		// break its own probe chain.
		if (j-m.home(k))&mask >= (j-hole)&mask {
			m.slots[hole] = m.slots[j]
			hole = j
		}
	}
	m.slots[hole].key = emptySlot
	return true
}

// MapValues replaces every stored value v with f(v), in one sequential
// sweep of the table. Keys and their slots do not move.
func (m *Map) MapValues(f func(val int64) int64) {
	for i := range m.slots {
		if s := &m.slots[i]; s.key != emptySlot {
			s.val = f(s.val)
		}
	}
}

// Reset removes all entries, keeping the allocated capacity.
func (m *Map) Reset() {
	for i := range m.slots {
		m.slots[i].key = emptySlot
	}
	m.n = 0
}

func (m *Map) grow() {
	old := m.slots
	m.init(2 * len(old))
	mask := uint64(len(m.slots) - 1)
	for _, s := range old {
		if s.key == emptySlot {
			continue
		}
		j := m.home(s.key)
		for m.slots[j].key != emptySlot {
			j = (j + 1) & mask
		}
		m.slots[j] = s
		m.n++
	}
}
