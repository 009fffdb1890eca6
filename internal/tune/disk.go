package tune

import (
	"fmt"
	"os"
	"time"

	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
)

// DiskRate is a measured sequential disk bandwidth pair for the spill
// tier: the third rate (after the copy and compute rates of Table 2) the
// Section 3.2 model needs once the memory hierarchy grows a disk level.
type DiskRate struct {
	Write, Read units.BytesPerSec
}

// MeasureDiskRate measures sequential write and read bandwidth in dir by
// streaming a scratch file of the given size through 1 MiB blocks — the
// same access pattern internal/spill's run writers and readers use, so
// the measured rates transfer to the workload. The scratch file is
// deleted before returning.
//
// The write clock includes an fsync so the rate reflects the device, not
// the dirty-page buffer; the read-back typically comes from the page
// cache and is therefore an upper bound — which is also what the merge
// phase of a just-spilled run observes, so it is the operative rate.
// bytes <= 0 selects 16 MiB.
func MeasureDiskRate(dir string, bytes int) (DiskRate, error) {
	if bytes <= 0 {
		bytes = 16 << 20
	}
	f, err := os.CreateTemp(dir, "diskrate-")
	if err != nil {
		return DiskRate{}, fmt.Errorf("tune: disk-rate scratch: %w", err)
	}
	path := f.Name()
	defer os.Remove(path)

	block := make([]byte, 1<<20)
	for i := range block {
		block[i] = byte(i)
	}
	t0 := time.Now()
	for written := 0; written < bytes; written += len(block) {
		b := block
		if rest := bytes - written; rest < len(b) {
			b = b[:rest]
		}
		if _, err := f.Write(b); err != nil {
			f.Close()
			return DiskRate{}, fmt.Errorf("tune: disk-rate write: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return DiskRate{}, fmt.Errorf("tune: disk-rate sync: %w", err)
	}
	wSec := time.Since(t0).Seconds()
	if err := f.Close(); err != nil {
		return DiskRate{}, err
	}

	r, err := os.Open(path)
	if err != nil {
		return DiskRate{}, err
	}
	t0 = time.Now()
	for {
		n, err := r.Read(block)
		if n == 0 && err != nil {
			break
		}
	}
	rSec := time.Since(t0).Seconds()
	r.Close()

	const floor = 1e-9 // a coarse clock must not divide to +Inf
	if wSec < floor {
		wSec = floor
	}
	if rSec < floor {
		rSec = floor
	}
	return DiskRate{
		Write: units.BytesPerSec(float64(bytes) / wSec),
		Read:  units.BytesPerSec(float64(bytes) / rSec),
	}, nil
}

// Publish mirrors the measured rates into the spill_* gauge family.
func (d DiskRate) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("spill_disk_write_bytes_per_sec",
		"measured sequential spill-disk write bandwidth", nil).Set(float64(d.Write))
	reg.Gauge("spill_disk_read_bytes_per_sec",
		"measured sequential spill-disk read bandwidth", nil).Set(float64(d.Read))
}
