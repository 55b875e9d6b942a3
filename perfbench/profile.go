package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is attributed to packages without the pprof library:
// runtime/pprof writes a gzipped profile.proto, and only four of its
// messages matter here — samples (location IDs, leaf first, and values),
// locations (lines, innermost inlined frame first), functions (a name's
// string-table index) and the string table.

// protoProfile is the subset of profile.proto the attribution reads.
type protoProfile struct {
	samples   []protoSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type protoSample struct {
	locations []uint64
	count     int64 // value[0]: the sample count
}

// parseProfile decodes a gzipped or raw profile.proto.
func parseProfile(data []byte) (*protoProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		data = raw
	}
	p := &protoProfile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s protoSample
			first := true
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids, err := varints(w, v, b)
					s.locations = append(s.locations, ids...)
					return err
				case 2:
					vals, err := varints(w, v, b)
					if first && len(vals) > 0 {
						s.count = int64(vals[0])
						first = false
					}
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// stack returns a sample's function names, innermost first.
func (p *protoProfile) stack(s protoSample) []string {
	var names []string
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			if idx, ok := p.functions[fn]; ok && idx >= 0 && int(idx) < len(p.strings) {
				names = append(names, p.strings[idx])
			}
		}
	}
	return names
}

// attribute returns each package's share of the profile's samples and the
// sample total. A sample belongs to the package of its innermost
// p2pcollect frame; samples with none go to "syscall" when any frame is a
// system call, else to "runtime".
func (p *protoProfile) attribute() (map[string]float64, int64) {
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		counts[classifyStack(p.stack(s))] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuPackages))
	for _, pkg := range cpuPackages {
		shares[pkg] = ratio(float64(counts[pkg]), float64(total))
	}
	return shares, total
}

// classifyStack names the package a stack (innermost frame first) is
// charged to; the result is always one of cpuPackages.
func classifyStack(stack []string) string {
	for _, fn := range stack {
		if pkg, ok := repoPackage(fn); ok {
			return pkg
		}
	}
	for _, fn := range stack {
		for _, prefix := range []string{"syscall.", "internal/poll.", "internal/syscall/", "internal/runtime/syscall."} {
			if strings.HasPrefix(fn, prefix) {
				return "syscall"
			}
		}
	}
	return "runtime"
}

// repoPackage maps a p2pcollect function name to its attribution bucket:
// the first path element under internal/, except that the WAL is its own
// bucket and the collection store folds into collect.
func repoPackage(fn string) (string, bool) {
	const prefix = "p2pcollect/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	path, _, _ := strings.Cut(fn[len(prefix):], ".")
	if path == "collect/store/wal" {
		return "wal", true
	}
	first, _, _ := strings.Cut(path, "/")
	for _, pkg := range cpuPackages {
		if pkg == first && pkg != "other" && pkg != "runtime" && pkg != "syscall" {
			return pkg, true
		}
	}
	return "other", true
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its bytes.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated varint field's values, packed or not.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
