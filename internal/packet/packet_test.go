package packet

import (
	"reflect"
	"strings"
	"testing"
)

func TestAllocUniqueIDs(t *testing.T) {
	var a Alloc
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		p := a.New(1, 2, 1, int64(i))
		if seen[p.ID] {
			t.Fatalf("duplicate ID %d", p.ID)
		}
		seen[p.ID] = true
	}
	if a.Issued() != 1000 {
		t.Fatalf("Issued = %d", a.Issued())
	}
}

func TestNewFields(t *testing.T) {
	var a Alloc
	p := a.New(3, 7, 2, 42)
	if p.Source != 3 || p.Dest != 7 || p.Slots != 2 || p.Born != 42 {
		t.Fatalf("fields wrong: %+v", p)
	}
	if p.Injected != -1 {
		t.Fatalf("Injected should start at -1, got %d", p.Injected)
	}
	if p.Hot {
		t.Fatal("packets are cold by default")
	}
}

// TestNewResetsRecycledPacket dirties every field of a recycled packet
// through reflection, so a field added to Packet later is covered too,
// and requires New to hand it back holding only its arguments, the next
// ID and Injected = -1.
func TestNewResetsRecycledPacket(t *testing.T) {
	var a Alloc
	p := a.New(1, 1, 1, 1)
	f := reflect.ValueOf(p).Elem()
	for i := 0; i < f.NumField(); i++ {
		switch fv := f.Field(i); fv.Kind() {
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Int, reflect.Int64:
			fv.SetInt(99)
		case reflect.Uint64:
			fv.SetUint(99)
		default:
			t.Fatalf("field %s has kind %v; teach this test to dirty it", f.Type().Field(i).Name, fv.Kind())
		}
	}
	a.Recycle(p)
	q := a.New(3, 7, 2, 42)
	if q != p {
		t.Fatal("New did not reuse the recycled packet")
	}
	want := Packet{ID: 2, Source: 3, Dest: 7, Slots: 2, Born: 42, Injected: -1}
	if *q != want {
		t.Fatalf("recycled packet = %+v, want %+v", *q, want)
	}
}

func TestString(t *testing.T) {
	var a Alloc
	p := a.New(3, 7, 2, 42)
	s := p.String()
	for _, want := range []string{"3->7", "slots=2", "born=42"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
