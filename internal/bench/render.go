package bench

// Rendering. Every section of a Report flattens, through the json tags
// of its rows, into tables that print as aligned text or as CSV, so a
// table's columns are the report's keys and its cells the report's
// values: a nested field becomes a dotted column (p50.e2e_ns) and an
// array element an indexed one (p50.stages_ns.0).

import (
	"encoding"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Table is one row list of a report section, flattened.
type Table struct {
	// Name is the section's json key, joined by "." to the row list's
	// key when the section holds several (ablation.max_consensus).
	Name string
	// Params are the section's other fields (seed, config) as
	// key=JSON pairs.
	Params string
	Header []string
	Rows   [][]string
}

// Tables flattens the named sections of r, or every section when none
// is named, in report order.
func (r *Report) Tables(keys ...string) ([]Table, error) {
	var out []Table
	rv := reflect.ValueOf(r).Elem()
	for i := range rv.NumField() {
		key := jsonKey(rv.Type().Field(i))
		if rv.Field(i).Kind() != reflect.Struct || (len(keys) > 0 && !slices.Contains(keys, key)) {
			continue
		}
		tables, err := sectionTables(key, rv.Field(i))
		if err != nil {
			return nil, fmt.Errorf("bench: render %s: %w", key, err)
		}
		out = append(out, tables...)
	}
	return out, nil
}

// sectionTables makes one table per row list (slice of structs) of the
// section sec; its other fields become every table's Params.
func sectionTables(key string, sec reflect.Value) ([]Table, error) {
	var params []string
	var lists []int
	for i := range sec.NumField() {
		f := sec.Type().Field(i)
		if f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Struct {
			lists = append(lists, i)
			continue
		}
		blob, err := json.Marshal(sec.Field(i).Interface())
		if err != nil {
			return nil, err
		}
		params = append(params, jsonKey(f)+"="+string(blob))
	}
	var out []Table
	for _, i := range lists {
		t := Table{Name: key, Params: strings.Join(params, " ")}
		if len(lists) > 1 {
			t.Name += "." + jsonKey(sec.Type().Field(i))
		}
		rows := sec.Field(i)
		flatten("", reflect.Zero(rows.Type().Elem()), &t.Header, nil)
		for j := range rows.Len() {
			var cells []string
			flatten("", rows.Index(j), nil, &cells)
			t.Rows = append(t.Rows, cells)
		}
		out = append(out, t)
	}
	return out, nil
}

var textMarshaler = reflect.TypeFor[encoding.TextMarshaler]()

// flatten appends v's leaf column names (when names is non-nil) and
// cells (when cells is non-nil) under prefix: a struct contributes its
// json-tagged fields, an array or slice its indexed elements, and any
// other value one cell, formatted as JSON formats it.
func flatten(prefix string, v reflect.Value, names, cells *[]string) {
	join := func(k string) string {
		if prefix == "" {
			return k
		}
		return prefix + "." + k
	}
	var cell string
	switch {
	case v.Type().Implements(textMarshaler):
		// The rows' one TextMarshaler, p4ce.Mode, cannot fail.
		text, _ := v.Interface().(encoding.TextMarshaler).MarshalText()
		cell = string(text)
	case v.Kind() == reflect.Struct:
		for i := range v.NumField() {
			if k := jsonKey(v.Type().Field(i)); k != "-" {
				flatten(join(k), v.Field(i), names, cells)
			}
		}
		return
	case v.Kind() == reflect.Array || v.Kind() == reflect.Slice:
		for i := range v.Len() {
			flatten(join(strconv.Itoa(i)), v.Index(i), names, cells)
		}
		return
	case v.CanInt():
		cell = strconv.FormatInt(v.Int(), 10)
	case v.CanUint():
		cell = strconv.FormatUint(v.Uint(), 10)
	case v.CanFloat():
		cell = strconv.FormatFloat(v.Float(), 'f', -1, 64)
	case v.Kind() == reflect.Bool:
		cell = strconv.FormatBool(v.Bool())
	default:
		cell = v.String()
	}
	if names != nil {
		*names = append(*names, prefix)
	}
	if cells != nil {
		*cells = append(*cells, cell)
	}
}

// jsonKey is the name encoding/json gives field f ("-" when skipped).
func jsonKey(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	if name == "" {
		return f.Name
	}
	return name
}

// WriteText prints the table under a "=== name ===" title and its
// params, with the rows aligned in columns.
func (t Table) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "\n=== %s ===\n%s\n", t.Name, t.Params)
	for _, row := range append([][]string{t.Header}, t.Rows...) {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	return tw.Flush()
}

// WriteCSV writes the header and the rows as CSV.
func (t Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}
