package storage_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sqlbarber/internal/datagen"
	"sqlbarber/internal/storage"
)

// corruptPrefix is a snapshot header followed by a uvarint length: a
// 19-byte file claiming a 1<<62-byte schema used to panic Load in
// makeslice.
func corruptPrefix(body []byte, n uint64) []byte {
	out := append([]byte(nil), body...)
	return binary.AppendUvarint(out, n)
}

// withSchema is a snapshot header followed by the given schema JSON.
func withSchema(schema string) []byte {
	return append(corruptPrefix([]byte("SQLBSNAP1"), uint64(len(schema))), schema...)
}

// corruptSeeds are snapshots Load must reject. Their length prefixes claim
// far more bytes or rows than follow: a 1<<62-byte schema (the 19-byte
// file), a 1<<62-row table, a 1<<62-byte string, and a zero-column table
// claiming rows. Or their schema names a null table, or one table twice.
func corruptSeeds() [][]byte {
	oneCol := withSchema(`{"Name":"t","Tables":[{"Name":"a","Columns":[{"Name":"s","Type":2}]}]}`)
	return [][]byte{
		corruptPrefix([]byte("SQLBSNAP1"), 1<<62),
		corruptPrefix(oneCol, 1<<62),
		binary.AppendUvarint(append(corruptPrefix(oneCol, 1), 3), 1<<62),
		corruptPrefix(withSchema(`{"Tables":[{"Name":"z"}]}`), 1<<62),
		withSchema(`{"Tables":[null]}`),
		append(withSchema(`{"Tables":[{"Name":"a","Columns":[{"Name":"x"}]},{"Name":"A","Columns":[{"Name":"x"},{"Name":"y"}]}]}`), 0, 0),
	}
}

// TestLoadRejectsCorruptSnapshots: every corrupt seed is an error, not a
// panic, a huge allocation, or a database that re-saves differently.
func TestLoadRejectsCorruptSnapshots(t *testing.T) {
	for i, data := range corruptSeeds() {
		if _, err := storage.Load(bytes.NewReader(data)); err == nil {
			t.Errorf("corrupt seed %d (%d bytes) loaded without error", i, len(data))
		}
	}
}

// FuzzLoad checks that Load never panics on arbitrary input and that a
// snapshot it accepts is a fixpoint after one re-save: Save(Load(data))
// loads back and re-saves to identical bytes. The seed corpus is a small
// saved TPC-H snapshot plus corrupt length prefixes for the schema, a row
// count and a string.
func FuzzLoad(f *testing.F) {
	var snap bytes.Buffer
	if err := datagen.TPCH(1, 0.0005).Save(&snap); err != nil {
		f.Fatal(err)
	}
	good := snap.Bytes()
	if _, err := storage.Load(bytes.NewReader(good)); err != nil {
		f.Fatalf("the saved TPC-H seed does not load: %v", err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	for _, data := range corruptSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := storage.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := db.Save(&first); err != nil {
			t.Fatalf("re-saving a loaded snapshot: %v", err)
		}
		back, err := storage.Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("loading a re-saved snapshot: %v", err)
		}
		var second bytes.Buffer
		if err := back.Save(&second); err != nil {
			t.Fatalf("re-saving twice: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-save is not a fixpoint: %d bytes then %d bytes", first.Len(), second.Len())
		}
	})
}
