package remote

import (
	"encoding"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unsafe"

	"ipex/internal/nvp"
)

// The canonical decoder reads, in one pass, the exact layout json.Marshal
// writes for a type: fields in declaration order, any of them omitted, no
// whitespace, strings of unescaped printable ASCII and numbers in the JSON
// grammar. It accepts a strict subset of what decodeStrict accepts and
// yields the same value for it: an unsigned integer is read as the digits
// strconv.ParseUint accepts, every other number goes through the strconv
// call encoding/json makes, and a key must match its field's name exactly.
// A body outside that subset is not an error here; the caller hands it to
// decodeStrict, which decides. FuzzDecodeResult pins the equivalence.
//
// The decoder writes each value at its field's offset through
// unsafe.Pointer, with the offsets and element types reflect reports for
// the plan's type; decodeCanonical checks that the target has that type.
// Going through reflect.Value.Field and Set for each of a result's ~100
// fields cost about a quarter of the decode.

// The plans of the two types every verified frame carries, built once.
var (
	resultPlan = mustPlan(reflect.TypeFor[nvp.Result]())
	framePlan  = mustPlan(reflect.TypeFor[BatchFrame]())
)

type planKind uint8

const (
	planUint planKind = iota
	planInt
	planFloat
	planBool
	planString
	planStruct
	planPtr
	planSlice
	planArray
)

// plan is how the canonical decoder reads one Go type.
type plan struct {
	kind planKind
	typ  reflect.Type
	// fields are a struct's JSON fields in declaration order.
	fields []planField
	// elem reads a pointer's, slice's or array's element.
	elem *plan
}

// planField is one struct field: the `"Name":` json.Marshal writes before
// its value, its offset in the struct, and how to read the value.
type planField struct {
	key    string
	offset uintptr
	plan   *plan
}

var (
	jsonUnmarshaler = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshaler = reflect.TypeFor[encoding.TextUnmarshaler]()
)

// newPlan builds t's plan. It refuses any type whose JSON it cannot read
// exactly as encoding/json does: a kind outside the plan (map, interface,
// other numeric widths, []byte), an embedded field, a type that decodes
// itself, a ",string" field, a field name json.Marshal would escape, and
// two fields with one name. Unexported and `json:"-"` fields have no JSON
// and are left out.
func newPlan(t reflect.Type) (*plan, error) {
	if pt := reflect.PointerTo(t); pt.Implements(jsonUnmarshaler) || pt.Implements(textUnmarshaler) {
		return nil, fmt.Errorf("%s decodes itself", t)
	}
	p := &plan{typ: t}
	switch t.Kind() {
	case reflect.Uint64:
		p.kind = planUint
	case reflect.Int:
		p.kind = planInt
	case reflect.Float64:
		p.kind = planFloat
	case reflect.Bool:
		p.kind = planBool
	case reflect.String:
		p.kind = planString
	case reflect.Struct:
		p.kind = planStruct
		seen := make(map[string]bool)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			tag := f.Tag.Get("json")
			if tag == "-" {
				continue
			}
			if f.Anonymous {
				return nil, fmt.Errorf("%s.%s: embedded field", t, f.Name)
			}
			if !f.IsExported() {
				continue
			}
			name, opts, _ := strings.Cut(tag, ",")
			if name == "" {
				name = f.Name
			}
			for _, opt := range strings.Split(opts, ",") {
				if opt == "string" {
					return nil, fmt.Errorf("%s.%s: ,string option", t, f.Name)
				}
			}
			if !plainName(name) {
				return nil, fmt.Errorf("%s.%s: JSON name %q is not plain", t, f.Name, name)
			}
			if seen[name] {
				return nil, fmt.Errorf("%s.%s: JSON name %q used twice", t, f.Name, name)
			}
			seen[name] = true
			fp, err := newPlan(f.Type)
			if err != nil {
				return nil, fmt.Errorf("%s.%s: %w", t, f.Name, err)
			}
			p.fields = append(p.fields, planField{key: `"` + name + `":`, offset: f.Offset, plan: fp})
		}
	case reflect.Pointer:
		p.kind = planPtr
	case reflect.Slice:
		p.kind = planSlice
	case reflect.Array:
		p.kind = planArray
	default:
		return nil, fmt.Errorf("%s: kind %s has no plan", t, t.Kind())
	}
	if p.kind == planPtr || p.kind == planSlice || p.kind == planArray {
		elem, err := newPlan(t.Elem())
		if err != nil {
			return nil, err
		}
		p.elem = elem
	}
	return p, nil
}

// mustPlan is newPlan for the package's own types, whose plans a test
// builds too: a field the plan cannot read is a bug in this file.
func mustPlan(t reflect.Type) *plan {
	p, err := newPlan(t)
	if err != nil {
		panic("remote: canonical decoder: " + err.Error())
	}
	return p
}

// plainName reports whether json.Marshal writes name as is: ASCII letters,
// digits and underscores.
func plainName(name string) bool {
	for i := 0; i < len(name); i++ {
		if c := name[i]; !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_') {
			return false
		}
	}
	return name != ""
}

// decodeCanonical decodes b into *v, which must be zero and of p's type,
// when b is in the canonical layout, and reports whether it was. When it
// was not, *v holds part of b and must be discarded.
func decodeCanonical(p *plan, b []byte, v any) bool {
	rv := reflect.ValueOf(v)
	if rv.Type().Elem() != p.typ {
		panic("remote: decodeCanonical of a " + rv.Type().String() + " along a plan for " + p.typ.String())
	}
	d := canonReader{b: b}
	return d.value(p, rv.UnsafePointer()) && d.i == len(b)
}

// canonReader is one canonical decode: the bytes and the read position.
type canonReader struct {
	b []byte
	i int
}

// value reads one value of p's kind into the zero value at ptr.
func (d *canonReader) value(p *plan, ptr unsafe.Pointer) bool {
	switch p.kind {
	case planUint:
		n, ok := d.uint()
		*(*uint64)(ptr) = n
		return ok
	case planInt:
		n, err := strconv.ParseInt(string(d.number()), 10, strconv.IntSize)
		*(*int)(ptr) = int(n)
		return err == nil
	case planFloat:
		f, err := strconv.ParseFloat(string(d.number()), 64)
		*(*float64)(ptr) = f
		return err == nil
	case planBool:
		if d.literal("true") {
			*(*bool)(ptr) = true
			return true
		}
		return d.literal("false")
	case planString:
		s, ok := d.str()
		*(*string)(ptr) = s
		return ok
	case planStruct:
		return d.object(p, ptr)
	case planPtr:
		if d.literal("null") {
			return true
		}
		e := reflect.New(p.elem.typ).UnsafePointer()
		*(*unsafe.Pointer)(ptr) = e
		return d.value(p.elem, e)
	case planSlice:
		if d.literal("null") {
			return true
		}
		if !d.eat('[') {
			return false
		}
		v := reflect.NewAt(p.typ, ptr).Elem()
		v.Set(reflect.MakeSlice(p.typ, 0, 0))
		if d.eat(']') {
			return true
		}
		for n := 0; ; n++ {
			v.Grow(1)
			v.SetLen(n + 1)
			if !d.value(p.elem, v.Index(n).Addr().UnsafePointer()) {
				return false
			}
			if d.eat(']') {
				return true
			}
			if !d.eat(',') {
				return false
			}
		}
	case planArray:
		if !d.eat('[') {
			return false
		}
		size := p.elem.typ.Size()
		for i := 0; i < p.typ.Len(); i++ {
			if i > 0 && !d.eat(',') {
				return false
			}
			if !d.value(p.elem, unsafe.Add(ptr, uintptr(i)*size)) {
				return false
			}
		}
		return d.eat(']')
	}
	return false
}

// object reads a struct's fields, each at most once and in declaration
// order.
func (d *canonReader) object(p *plan, ptr unsafe.Pointer) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	for next := 0; ; {
		j := next
		for j < len(p.fields) && !d.literal(p.fields[j].key) {
			j++
		}
		if j == len(p.fields) {
			return false
		}
		f := &p.fields[j]
		if !d.value(f.plan, unsafe.Add(ptr, f.offset)) {
			return false
		}
		if d.eat('}') {
			return true
		}
		if !d.eat(',') {
			return false
		}
		next = j + 1
	}
}

// uint reads the digits of a number strconv.ParseUint(s, 10, 64) accepts,
// without a leading zero. A fraction or exponent after them is left
// unread, so the object around the number refuses it.
func (d *canonReader) uint() (uint64, bool) {
	b, i := d.b, d.i
	var n uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		c := uint64(b[i] - '0')
		if n > (math.MaxUint64-c)/10 {
			return 0, false
		}
		n = n*10 + c
	}
	if i == d.i || b[d.i] == '0' && i > d.i+1 {
		return 0, false
	}
	d.i = i
	return n, true
}

// number reads a token in the JSON number grammar, or nothing.
func (d *canonReader) number() []byte {
	b, i := d.b, d.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i == len(b) || b[i] < '1' || b[i] > '9' || !digits() {
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil
		}
	}
	tok := b[d.i:i]
	d.i = i
	return tok
}

// str reads a string of unescaped printable ASCII.
func (d *canonReader) str() (string, bool) {
	if !d.eat('"') {
		return "", false
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := string(d.b[d.i:j])
			d.i = j + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", false
		}
	}
	return "", false
}

// literal consumes s if the input continues with it.
func (d *canonReader) literal(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// eat consumes c if it is the next byte.
func (d *canonReader) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}
