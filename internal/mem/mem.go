// Package mem models the KNL node's two-level memory: DDR main memory and
// on-package MCDRAM, with the BIOS-selectable usage modes the paper
// evaluates (flat, hardware cache, hybrid) and a scratchpad allocator that
// plays the role of memkind's hbw_malloc for flat-mode allocations.
//
// The "implicit cache mode" the paper proposes is not a hardware mode — it
// is a software strategy (run the chunked flat-mode algorithm while the
// BIOS is in cache mode), so it lives in the algorithm layer, not here.
package mem

import (
	"fmt"

	"knlmlm/internal/units"
)

// Mode is a BIOS-selectable MCDRAM usage mode.
type Mode int

const (
	// Flat exposes all MCDRAM as addressable scratchpad.
	Flat Mode = iota
	// Cache uses all MCDRAM as a direct-mapped memory-side cache.
	Cache
	// Hybrid splits MCDRAM between scratchpad and cache.
	Hybrid
)

// String reports the mode name as used in the paper.
func (m Mode) String() string {
	switch m {
	case Flat:
		return "flat"
	case Cache:
		return "cache"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Spec describes the physical memory of a node.
type Spec struct {
	DDRCapacity     units.Bytes
	MCDRAMCapacity  units.Bytes
	DDRBandwidth    units.BytesPerSec
	MCDRAMBandwidth units.BytesPerSec
	// CacheLine is the MCDRAM cache line size in cache/hybrid modes (64 B
	// on KNL, matching the core cache hierarchy).
	CacheLine units.Bytes
	// CacheTagOverhead is the fraction of the cache partition consumed by
	// tag storage, reducing effective cacheable capacity (the paper's
	// "some portion of the memory is reserved to hold the tags").
	CacheTagOverhead float64
}

// Validate reports whether the spec is physically sensible.
func (s Spec) Validate() error {
	switch {
	case s.DDRCapacity <= 0:
		return fmt.Errorf("mem: DDR capacity %v must be positive", s.DDRCapacity)
	case s.MCDRAMCapacity <= 0:
		return fmt.Errorf("mem: MCDRAM capacity %v must be positive", s.MCDRAMCapacity)
	case s.DDRBandwidth <= 0:
		return fmt.Errorf("mem: DDR bandwidth %v must be positive", s.DDRBandwidth)
	case s.MCDRAMBandwidth <= 0:
		return fmt.Errorf("mem: MCDRAM bandwidth %v must be positive", s.MCDRAMBandwidth)
	case s.CacheLine <= 0:
		return fmt.Errorf("mem: cache line %v must be positive", s.CacheLine)
	case s.CacheTagOverhead < 0 || s.CacheTagOverhead >= 1:
		return fmt.Errorf("mem: cache tag overhead %v must be in [0,1)", s.CacheTagOverhead)
	}
	return nil
}

// Config selects a usage mode for a Spec.
type Config struct {
	Mode Mode
	// HybridCacheFraction is the share of MCDRAM used as cache in Hybrid
	// mode (KNL BIOS offered 25% or 50%); ignored in other modes.
	HybridCacheFraction float64
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	if c.Mode == Hybrid && (c.HybridCacheFraction <= 0 || c.HybridCacheFraction >= 1) {
		return fmt.Errorf("mem: hybrid cache fraction %v must be in (0,1)", c.HybridCacheFraction)
	}
	return nil
}

// ScratchpadCapacity reports the addressable MCDRAM under the config.
func (s Spec) ScratchpadCapacity(c Config) units.Bytes {
	switch c.Mode {
	case Flat:
		return s.MCDRAMCapacity
	case Cache:
		return 0
	case Hybrid:
		return units.Bytes(float64(s.MCDRAMCapacity) * (1 - c.HybridCacheFraction))
	default:
		panic(fmt.Sprintf("mem: unknown mode %v", c.Mode))
	}
}

// CacheCapacity reports the effective cacheable MCDRAM (after tag overhead)
// under the config.
func (s Spec) CacheCapacity(c Config) units.Bytes {
	var raw units.Bytes
	switch c.Mode {
	case Flat:
		return 0
	case Cache:
		raw = s.MCDRAMCapacity
	case Hybrid:
		raw = units.Bytes(float64(s.MCDRAMCapacity) * c.HybridCacheFraction)
	default:
		panic(fmt.Sprintf("mem: unknown mode %v", c.Mode))
	}
	return units.Bytes(float64(raw) * (1 - s.CacheTagOverhead))
}

// KNL7250 returns the spec of the paper's testbed: Xeon Phi 7250 with 16 GiB
// MCDRAM and the Table 2 STREAM bandwidths (DDR 90 GB/s, MCDRAM 400 GB/s).
// DDR capacity is 96 GiB (6 channels x 16 GiB DIMMs, a common configuration
// that holds the paper's largest 48 GB problem plus merge space).
func KNL7250() Spec {
	return Spec{
		DDRCapacity:      96 * units.GiB,
		MCDRAMCapacity:   16 * units.GiB,
		DDRBandwidth:     units.GBps(90),
		MCDRAMBandwidth:  units.GBps(400),
		CacheLine:        64,
		CacheTagOverhead: 0.03,
	}
}
