package intmap

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestDifferentialAgainstBuiltinMap drives the open-addressed table and a
// built-in map through the same randomized Put/Delete/Get workload and
// requires identical observable behaviour, including backward-shift
// deletion keeping every surviving probe chain intact.
func TestDifferentialAgainstBuiltinMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := New(4)
	ref := map[int64]int64{}

	// Small key space forces heavy collision/delete/reinsert churn.
	const keySpace = 512
	for op := 0; op < 200000; op++ {
		key := rng.Int63n(keySpace)
		switch rng.Intn(3) {
		case 0:
			val := rng.Int63()
			m.Put(key, val)
			ref[key] = val
		case 1:
			got := m.Delete(key)
			_, want := ref[key]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, key, got, want)
			}
			delete(ref, key)
		case 2:
			gotV, gotOK := m.Get(key)
			wantV, wantOK := ref[key]
			if gotOK != wantOK || (gotOK && gotV != wantV) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", op, key, gotV, gotOK, wantV, wantOK)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, m.Len(), len(ref))
		}
	}

	// Full sweep at the end: every reference entry must be present.
	for k, v := range ref {
		got, ok := m.Get(k)
		if !ok || got != v {
			t.Fatalf("final: Get(%d) = %d,%v want %d,true", k, got, ok, v)
		}
	}
}

func TestResetKeepsCapacity(t *testing.T) {
	m := New(1)
	for i := int64(0); i < 1000; i++ {
		m.Put(i, i*2)
	}
	size := len(m.slots)
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
	if len(m.slots) != size {
		t.Fatalf("Reset shrank table: %d -> %d", size, len(m.slots))
	}
	if _, ok := m.Get(3); ok {
		t.Fatal("entry survived Reset")
	}
	for i := int64(0); i < 1000; i++ {
		m.Put(i, i)
	}
	if len(m.slots) != size {
		t.Fatalf("refill grew table: %d -> %d", size, len(m.slots))
	}
}

func TestNegativeKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put(-1) did not panic")
		}
	}()
	New(4).Put(-1, 0)
}

// checkChains verifies the linear-probing invariant backward-shift
// deletion must keep: every stored key sits at its home slot or after
// it with no empty slot in between (cyclically), so a lookup starting at
// home reaches it.
func checkChains(t *testing.T, m *Map) {
	t.Helper()
	mask := uint64(len(m.slots) - 1)
	n := 0
	for j, s := range m.slots {
		if s.key == emptySlot {
			continue
		}
		n++
		for i := m.home(s.key); i != uint64(j); i = (i + 1) & mask {
			if m.slots[i].key == emptySlot {
				t.Fatalf("key %d at slot %d: hole at slot %d after its home %d", s.key, j, i, m.home(s.key))
			}
		}
	}
	if n != m.n {
		t.Fatalf("%d occupied slots, Len %d", n, m.n)
	}
}

// keysHomedAt returns count keys whose home slot in m is slot.
func keysHomedAt(m *Map, slot uint64, count int) []int64 {
	var out []int64
	for q := int64(0); len(out) < count; q++ {
		if k := q<<groupBits | int64(slot&(1<<groupBits-1)); m.home(k) == slot {
			out = append(out, k)
		}
	}
	return out
}

// TestDeleteAcrossGroupsAndWrap drives colliding keys homed at the last
// slot of a group (so their chains spill into the next group) and at the
// table's last slot (so their chains wrap to slot 0) through random
// Put/Delete against a built-in map, checking the probe-chain invariant
// after every operation.
func TestDeleteAcrossGroupsAndWrap(t *testing.T) {
	m := New(8) // 16 slots, 4 groups: never grows below 8 entries
	size := uint64(len(m.slots))
	var keys []int64
	for _, home := range []uint64{3, 4, 7, 11, size - 2, size - 1, 0} {
		keys = append(keys, keysHomedAt(m, home, 3)...)
	}
	ref := map[int64]int64{}
	rng := rand.New(rand.NewSource(5))
	for op := 0; op < 20000; op++ {
		k := keys[rng.Intn(len(keys))]
		if rng.Intn(2) == 0 && len(ref) < 8 {
			m.Put(k, int64(op))
			ref[k] = int64(op)
		} else {
			_, want := ref[k]
			if got := m.Delete(k); got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, want)
			}
			delete(ref, k)
		}
		if len(m.slots) != int(size) {
			t.Fatalf("op %d: table grew to %d slots", op, len(m.slots))
		}
		checkChains(t, m)
		for _, k := range keys {
			v, ok := m.Get(k)
			if w, wok := ref[k]; ok != wok || v != w {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", op, k, v, ok, w, wok)
			}
		}
	}
}

// TestWrappedChainDelete is the wrap case spelled out: three keys homed
// at the last slot occupy it and wrap to slots 0 and 1; deleting the
// first must shift both back.
func TestWrappedChainDelete(t *testing.T) {
	m := New(8)
	last := uint64(len(m.slots) - 1)
	ks := keysHomedAt(m, last, 3)
	for i, k := range ks {
		m.Put(k, int64(i))
	}
	if m.slots[last].key != ks[0] || m.slots[0].key != ks[1] || m.slots[1].key != ks[2] {
		t.Fatalf("chain not laid out across the wrap: %v", m.slots)
	}
	m.Delete(ks[0])
	if m.slots[last].key != ks[1] || m.slots[0].key != ks[2] || m.slots[1].key != emptySlot {
		t.Fatalf("backward shift across the wrap: %v", m.slots)
	}
	checkChains(t, m)
}

// TestGroupLayout pins the layout: the four pages of an aligned group
// share a 64-byte line, at offsets 0..3 of their group.
func TestGroupLayout(t *testing.T) {
	m := New(1 << 10)
	if addr := uintptr(unsafe.Pointer(&m.slots[0])); addr%64 != 0 {
		t.Fatalf("slot array at %#x is not cache-line aligned", addr)
	}
	for g := int64(0); g < 100; g++ {
		base := m.home(4 * g)
		if base%4 != 0 {
			t.Fatalf("page %d homed at slot %d, not a group start", 4*g, base)
		}
		for off := int64(1); off < 4; off++ {
			if h := m.home(4*g + off); h != base+uint64(off) {
				t.Fatalf("page %d homed at slot %d, want %d", 4*g+off, h, base+uint64(off))
			}
		}
	}
}

// TestUpdate: Update rewrites present keys in place, reports the old
// value, and leaves absent (and negative) keys absent.
func TestUpdate(t *testing.T) {
	m := New(4)
	if _, ok := m.Update(7, 1); ok || m.Len() != 0 {
		t.Fatal("Update inserted an absent key")
	}
	m.Put(7, 10)
	if old, ok := m.Update(7, 11); !ok || old != 10 {
		t.Fatalf("Update(7) = %d,%v, want 10,true", old, ok)
	}
	if v, _ := m.Get(7); v != 11 {
		t.Fatalf("Get(7) = %d after Update, want 11", v)
	}
	if _, ok := m.Update(-1, 0); ok {
		t.Fatal("Update(-1) reported a present key")
	}
	if _, ok := m.Get(-1); ok || m.Delete(-1) {
		t.Fatal("negative key reported present")
	}
	m.MapValues(func(v int64) int64 { return 2 * v })
	if v, _ := m.Get(7); v != 22 || m.Len() != 1 {
		t.Fatalf("Get(7) = %d after MapValues, want 22", v)
	}
}
