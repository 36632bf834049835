// Package resettest checks that a recycled simulator component was reset
// to exactly what its constructor builds. Tests only: production code must
// not import it.
//
// Diff compares the way reflect.DeepEqual does, with two differences a
// reset needs. A nil slice equals an empty one, because a reset keeps the
// capacity of every slice while a constructor may leave it nil. Fields
// named in skip are not compared at any depth: free lists and recycling
// generations are meant to survive a reset. Diff reads unexported fields
// too, so a field added to a component without a reset line shows up.
package resettest

import (
	"fmt"
	"reflect"
	"strconv"
)

// Diff returns the path of the first difference between fresh and reset,
// or "" when they are equal.
func Diff(fresh, reset any, skip ...string) string {
	d := differ{skip: make(map[string]bool, len(skip)), seen: make(map[[2]uintptr]bool)}
	for _, s := range skip {
		d.skip[s] = true
	}
	return d.diff(reflect.ValueOf(fresh), reflect.ValueOf(reset), "")
}

type differ struct {
	skip map[string]bool
	// seen holds the pointer pairs already being compared, so cyclic
	// structures terminate.
	seen map[[2]uintptr]bool
}

func (d *differ) diff(a, b reflect.Value, path string) string {
	if a.IsValid() != b.IsValid() {
		return path + ": one side is nil"
	}
	if !a.IsValid() {
		return ""
	}
	if a.Type() != b.Type() {
		return fmt.Sprintf("%s: type %s vs %s", path, a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if d.skip[name] {
				continue
			}
			if p := d.diff(a.Field(i), b.Field(i), path+"."+name); p != "" {
				return p
			}
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil vs non-nil pointer"
			}
			return ""
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if d.seen[key] {
			return ""
		}
		d.seen[key] = true
		return d.diff(a.Elem(), b.Elem(), path)
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil vs non-nil interface"
			}
			return ""
		}
		return d.diff(a.Elem(), b.Elem(), path)
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if p := d.diff(a.Index(i), b.Index(i), path+"["+strconv.Itoa(i)+"]"); p != "" {
				return p
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d vs %d map entries", path, a.Len(), b.Len())
		}
		it := a.MapRange()
		for it.Next() {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]: missing", path, it.Key())
			}
			if p := d.diff(it.Value(), bv, fmt.Sprintf("%s[%v]", path, it.Key())); p != "" {
				return p
			}
		}
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		// Functions are comparable only to nil, as in reflect.DeepEqual.
		if a.IsNil() != b.IsNil() || (a.Kind() != reflect.Func && a.Pointer() != b.Pointer()) {
			return path + ": differs"
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.Complex64, reflect.Complex128:
		if a.Complex() != b.Complex() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Complex(), b.Complex())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	default:
		return fmt.Sprintf("%s: cannot compare kind %s", path, a.Kind())
	}
	return ""
}
