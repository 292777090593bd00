package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profilePackages are the groups CPU samples are reported under, by the
// package of their leaf frame; "other" takes everything else.
var profilePackages = []string{
	"sim", "cpu", "cache", "coherence", "noc", "cdc", "core", "apps",
	"sched", "model", "cluster", "workload", "faults", "telemetry", "daemon",
	"runtime", "http", "json", "syscall", "rand", "other",
}

// groupOf maps a function name from the profile to its report group.
func groupOf(fn string) string {
	path := fn
	if slash := strings.LastIndex(fn, "/"); slash >= 0 {
		if dot := strings.Index(fn[slash:], "."); dot >= 0 {
			path = fn[:slash+dot]
		}
	} else if dot := strings.Index(fn, "."); dot >= 0 {
		path = fn[:dot]
	}
	switch {
	case strings.HasPrefix(path, "duet/internal/"):
		name := strings.TrimPrefix(path, "duet/internal/")
		for _, p := range profilePackages {
			if p == name {
				return p
			}
		}
		return "other"
	case path == "syscall" || path == "internal/runtime/syscall" || path == "internal/syscall/unix" || path == "internal/poll":
		return "syscall"
	case path == "runtime" || strings.HasPrefix(path, "internal/runtime/") || strings.HasPrefix(path, "runtime/internal/"):
		return "runtime"
	case path == "net/http" || strings.HasPrefix(path, "net/http/"):
		return "http"
	case path == "encoding/json":
		return "json"
	case path == "math/rand":
		return "rand"
	}
	return "other"
}

// profileSamples decodes a gzipped pprof CPU profile and adds each
// group's sample count to counts. It reads only what that needs: the
// samples' leaf locations, the locations' innermost functions, and the
// function names.
func profileSamples(gz []byte, counts map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	var strs []string
	funcName := map[uint64]int64{} // function id -> string index
	locFunc := map[uint64]uint64{} // location id -> innermost function id
	leafCount := map[uint64]int64{}
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var leaf uint64
			var count int64
			haveLeaf, haveCount := false, false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					if !haveLeaf {
						ids := packed(v, b)
						if len(ids) > 0 {
							leaf, haveLeaf = ids[0], true
						}
					}
				case 2:
					if !haveCount {
						vals := packed(v, b)
						if len(vals) > 0 {
							count, haveCount = int64(vals[0]), true
						}
					}
				}
				return nil
			})
			if err == nil && haveLeaf {
				leafCount[leaf] += count
			}
			return err
		case 4: // location
			var id, fn uint64
			haveFn := false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if !haveFn {
						return fields(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn, haveFn = v, true
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for loc, n := range leafCount {
		name := ""
		if idx, ok := funcName[locFunc[loc]]; ok && idx >= 0 && idx < int64(len(strs)) {
			name = strs[idx]
		}
		counts[groupOf(name)] += n
	}
	return nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		default:
			return fmt.Errorf("protobuf wire type %d not supported", wire)
		}
	}
	return nil
}

// packed returns a repeated varint field's values, whether it arrived as
// one unpacked value v or a packed run b.
func packed(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
