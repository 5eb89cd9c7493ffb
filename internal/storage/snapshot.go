package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqltypes"
)

// Snapshot format: a magic header, the JSON-encoded catalog schema
// (length-prefixed), then per table a row count followed by rows encoded as
// tagged values, row by row. Load rejects a value whose kind its column
// cannot hold. Saving and loading a generated dataset is much faster than
// regenerating and re-analyzing it, and lets workload files reference a
// frozen dataset by file.

const snapshotMagic = "SQLBSNAP1"

// Value tags in the binary row encoding.
const (
	tagNull byte = iota
	tagInt
	tagFloat
	tagString
	tagBoolTrue
	tagBoolFalse
)

// Save writes the database (schema, statistics, and all rows) to w.
func (db *Database) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	schemaJSON, err := json.Marshal(db.Schema)
	if err != nil {
		return fmt.Errorf("storage: encoding schema: %w", err)
	}
	if err := writeUvarint(bw, uint64(len(schemaJSON))); err != nil {
		return err
	}
	if _, err := bw.Write(schemaJSON); err != nil {
		return err
	}
	for _, meta := range db.Schema.Tables {
		tbl := db.Table(meta.Name)
		if err := writeUvarint(bw, uint64(tbl.n)); err != nil {
			return err
		}
		for i := 0; i < tbl.n; i++ {
			for j := range tbl.Cols {
				if err := writeValue(bw, tbl.Cols[j].Value(i)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Load never allocates from a length prefix it has not seen the bytes for:
// a byte string longer than readChunk grows as its bytes arrive, and the
// column vectors grow row by row. So a corrupt or truncated snapshot is an
// error, never a huge allocation.
const readChunk = 64 << 10

// Load reads a snapshot written by Save.
func Load(r io.Reader) (*Database, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("storage: reading magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("storage: not a snapshot file (magic %q)", magic)
	}
	schemaLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("storage: schema length: %w", err)
	}
	schemaJSON, err := readN(br, schemaLen)
	if err != nil {
		return nil, fmt.Errorf("storage: schema body: %w", err)
	}
	var schema catalog.Schema
	if err := json.Unmarshal(schemaJSON, &schema); err != nil {
		return nil, fmt.Errorf("storage: decoding schema: %w", err)
	}
	seen := map[string]bool{}
	for i, meta := range schema.Tables {
		if meta == nil {
			return nil, fmt.Errorf("storage: schema table %d is null", i)
		}
		if seen[lower(meta.Name)] {
			return nil, fmt.Errorf("storage: schema names table %q twice", meta.Name)
		}
		seen[lower(meta.Name)] = true
	}
	db := NewDatabase(&schema)
	for _, meta := range schema.Tables {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("storage: row count of %s: %w", meta.Name, err)
		}
		tbl := db.Table(meta.Name)
		width := len(meta.Columns)
		if width == 0 && n > 0 {
			// Zero-width rows carry no bytes, so nothing bounds the count.
			return nil, fmt.Errorf("storage: %s has no columns but %d rows", meta.Name, n)
		}
		row := make(Row, width)
		for i := uint64(0); i < n; i++ {
			for c := 0; c < width; c++ {
				v, err := readValue(br)
				if err != nil {
					return nil, fmt.Errorf("storage: %s row %d col %d: %w", meta.Name, i, c, err)
				}
				row[c] = v
			}
			if err := tbl.appendRow(row); err != nil {
				return nil, fmt.Errorf("storage: %s row %d: %w", meta.Name, i, err)
			}
		}
	}
	return db, nil
}

// readN reads exactly n bytes. Up to readChunk it reads into one exact
// buffer; a longer claim is read through a LimitReader, so the buffer grows
// only as bytes actually arrive.
func readN(r io.Reader, n uint64) ([]byte, error) {
	if n <= readChunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf, err := io.ReadAll(io.LimitReader(r, int64(min(n, math.MaxInt64))))
	if err != nil {
		return nil, err
	}
	if uint64(len(buf)) != n {
		return nil, io.ErrUnexpectedEOF
	}
	return buf, nil
}

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeValue(w *bufio.Writer, v sqltypes.Value) error {
	switch v.Kind() {
	case sqltypes.KindNull:
		return w.WriteByte(tagNull)
	case sqltypes.KindInt:
		if err := w.WriteByte(tagInt); err != nil {
			return err
		}
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutVarint(buf[:], v.Int())
		_, err := w.Write(buf[:n])
		return err
	case sqltypes.KindFloat:
		if err := w.WriteByte(tagFloat); err != nil {
			return err
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Float()))
		_, err := w.Write(buf[:])
		return err
	case sqltypes.KindString:
		if err := w.WriteByte(tagString); err != nil {
			return err
		}
		s := v.Str()
		if err := writeUvarint(w, uint64(len(s))); err != nil {
			return err
		}
		_, err := w.WriteString(s)
		return err
	case sqltypes.KindBool:
		if v.Bool() {
			return w.WriteByte(tagBoolTrue)
		}
		return w.WriteByte(tagBoolFalse)
	}
	return fmt.Errorf("unknown value kind %v", v.Kind())
}

func readValue(r *bufio.Reader) (sqltypes.Value, error) {
	tag, err := r.ReadByte()
	if err != nil {
		return sqltypes.Null, err
	}
	switch tag {
	case tagNull:
		return sqltypes.Null, nil
	case tagInt:
		n, err := binary.ReadVarint(r)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewInt(n), nil
	case tagFloat:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))), nil
	case tagString:
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return sqltypes.Null, err
		}
		buf, err := readN(r, n)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewString(string(buf)), nil
	case tagBoolTrue:
		return sqltypes.NewBool(true), nil
	case tagBoolFalse:
		return sqltypes.NewBool(false), nil
	}
	return sqltypes.Null, fmt.Errorf("unknown value tag %d", tag)
}
