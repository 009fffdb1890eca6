package tune

import (
	"os"
	"testing"

	"knlmlm/internal/telemetry"
)

func TestMeasureDiskRate(t *testing.T) {
	dir := t.TempDir()
	d, err := MeasureDiskRate(dir, 1<<20)
	if err != nil {
		t.Fatalf("MeasureDiskRate: %v", err)
	}
	if d.Write <= 0 || d.Read <= 0 {
		t.Fatalf("non-positive rates: %+v", d)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("scratch file survives measurement: %v", ents)
	}
}

func TestDiskRatePublish(t *testing.T) {
	reg := telemetry.NewRegistry()
	DiskRate{Write: 100, Read: 200}.Publish(reg)
	if v := reg.Gauge("spill_disk_read_bytes_per_sec", "", nil).Value(); v != 200 {
		t.Fatalf("read gauge = %v, want 200", v)
	}
	DiskRate{}.Publish(nil) // nil registry must be a no-op, not a panic
}
