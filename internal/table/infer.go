package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadCSVInferred reads a relation from CSV without a declared schema: the
// header supplies the column names, and a column's type is integer iff
// every non-empty value in it parses as one (string otherwise), so a
// column like "1, 2, N/A" degrades to string instead of failing mid-parse.
// Columns with no non-empty value anywhere — e.g. a fully missing FK
// column — default to int. The reader works on any stream, not just files:
// the serving layer feeds it multipart upload parts directly.
func ReadCSVInferred(rd io.Reader, name string) (*Relation, error) {
	cr := csv.NewReader(rd)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table: read csv header: %w", err)
	}
	var records [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: read csv: %w", err)
		}
		records = append(records, rec)
	}
	cols := make([]Column, len(header))
	for j, h := range header {
		t := TypeInt
		for _, rec := range records {
			f := strings.TrimSpace(rec[j])
			if f == "" {
				continue
			}
			if _, err := strconv.ParseInt(f, 10, 64); err != nil {
				t = TypeString
				break
			}
		}
		cols[j] = Column{Name: strings.TrimSpace(h), Type: t}
	}
	schema, err := MakeSchema(cols...)
	if err != nil {
		return nil, err
	}
	out := NewRelation(name, schema)
	for _, rec := range records {
		row := make([]Value, len(rec))
		for j, f := range rec {
			v, err := ParseValue(strings.TrimSpace(f), cols[j].Type)
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
		if err := out.Append(row...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReadCSVFileInferred is ReadCSVInferred over a file.
func ReadCSVFileInferred(path, name string) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSVInferred(f, name)
}
