package isa

import (
	"bytes"
	"reflect"
	"testing"
)

func TestContainerRoundTrip(t *testing.T) {
	p := sampleProgram()
	p.Data = []byte{1, 2, 3, 4, 5}
	p.Tasks[0x1004].PushRA = 0x100c
	p.Tasks[0x1004].CallTarget = 0x1004

	var buf bytes.Buffer
	if err := WriteProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := ReadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Entry != p.Entry {
		t.Errorf("entry = 0x%x", back.Entry)
	}
	if !reflect.DeepEqual(back.Text, p.Text) {
		t.Errorf("text differs:\n%v\n%v", back.Text, p.Text)
	}
	if !bytes.Equal(back.Data, p.Data) {
		t.Errorf("data differs")
	}
	if !reflect.DeepEqual(back.Tasks, p.Tasks) {
		t.Errorf("tasks differ:\n%v\n%v", back.Tasks[0x1004], p.Tasks[0x1004])
	}
	if !reflect.DeepEqual(back.Symbols, p.Symbols) {
		t.Errorf("symbols differ")
	}
}

// TestContainerBytesDeterministic pins that one program always encodes
// to the same bytes: job keys hash this encoding, so symbol-table map
// order must not leak into it.
func TestContainerBytesDeterministic(t *testing.T) {
	p := sampleProgram()
	p.Symbols = map[string]uint32{}
	for i := 0; i < 32; i++ {
		p.Symbols[string(rune('a'+i%26))+string(rune('A'+i))] = uint32(0x1000 + 4*i)
	}
	var first bytes.Buffer
	if err := WriteProgram(&first, p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := WriteProgram(&buf, p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), first.Bytes()) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

func TestContainerRejectsGarbage(t *testing.T) {
	if _, err := ReadProgram(bytes.NewReader([]byte("not a container"))); err == nil {
		t.Error("garbage should fail")
	}
	// Truncations at every prefix length must error, not panic.
	var buf bytes.Buffer
	if err := WriteProgram(&buf, sampleProgram()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n += 7 {
		if _, err := ReadProgram(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", n)
		}
	}
	// Trailing garbage rejected.
	if _, err := ReadProgram(bytes.NewReader(append(append([]byte{}, full...), 0))); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Wrong version rejected.
	bad := append([]byte{}, full...)
	bad[7] = 99
	if _, err := ReadProgram(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
}
