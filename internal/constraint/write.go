package constraint

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/table"
)

// RenderCC renders a CC as a DSL line parseable by ParseCC.
func RenderCC(cc CC) string {
	var b strings.Builder
	b.WriteString("cc")
	if cc.Name != "" {
		b.WriteByte(' ')
		b.WriteString(cc.Name)
	}
	b.WriteString(": count(")
	for di, d := range cc.Disjuncts() {
		if di > 0 {
			b.WriteString(" | ")
		}
		for i, a := range d.Atoms {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
	}
	b.WriteString(") = ")
	b.WriteString(strconv.FormatInt(cc.Target, 10))
	return b.String()
}

// RenderDC renders a DC as a DSL line parseable by ParseDC.
func RenderDC(dc DC) string {
	var b strings.Builder
	b.WriteString("dc")
	if dc.Name != "" {
		b.WriteByte(' ')
		b.WriteString(dc.Name)
	}
	b.WriteString(": deny ")
	parts := make([]string, 0, len(dc.Unary)+len(dc.Binary))
	for _, a := range dc.Unary {
		v := a.Val.String()
		if a.Val.Kind() == table.KindString {
			v = "'" + v + "'"
		}
		parts = append(parts, fmt.Sprintf("t%d.%s %s %s", a.Var+1, a.Col, a.Op, v))
	}
	for _, a := range dc.Binary {
		parts = append(parts, a.String())
	}
	b.WriteString(strings.Join(parts, " & "))
	return b.String()
}

// CanonicalConstraints renders both constraint sets as one DSL document
// with the constraint names elided. Names never influence the solver's
// output (they only appear in error messages), so this is the canonical
// text used for content-addressed cache keys: two constraint sets that
// differ only in naming or in surface formatting render identically.
// Constraint order and atom order are preserved — both can steer solver
// tie-breaking, so they are part of instance identity.
func CanonicalConstraints(ccs []CC, dcs []DC) string {
	var b strings.Builder
	for _, cc := range ccs {
		cc.Name = ""
		b.WriteString(RenderCC(cc))
		b.WriteByte('\n')
	}
	for _, dc := range dcs {
		dc.Name = ""
		b.WriteString(RenderDC(dc))
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteConstraints writes a constraint file in the DSL, CCs first; the
// output round-trips through ParseConstraints.
func WriteConstraints(w io.Writer, ccs []CC, dcs []DC) error {
	for _, cc := range ccs {
		if _, err := fmt.Fprintln(w, RenderCC(cc)); err != nil {
			return err
		}
	}
	for _, dc := range dcs {
		if _, err := fmt.Fprintln(w, RenderDC(dc)); err != nil {
			return err
		}
	}
	return nil
}
