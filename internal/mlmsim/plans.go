package mlmsim

import (
	"fmt"

	"knlmlm/internal/core"
	"knlmlm/internal/knl"
	"knlmlm/internal/mem"
	"knlmlm/internal/memkind"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

// Mode reports the MCDRAM mode the variant runs under.
func Mode(a mlmsort.Algorithm) mem.Mode {
	switch a {
	case mlmsort.GNUCache, mlmsort.MLMImplicit:
		return mem.Cache
	case mlmsort.MLMHybrid:
		return mem.Hybrid
	default:
		return mem.Flat
	}
}

// Config describes one sort run.
type Config struct {
	// Elements is the problem size N (int64 keys).
	Elements int64
	// Order is the input distribution.
	Order workload.Order
	// Threads is the thread budget (the paper uses 256).
	Threads int
	// MegachunkElements is the MLM megachunk size. Zero selects the
	// paper's choice: 1 G elements (1.5 G at 6 G) for MLM-sort/MLM-ddr,
	// and the whole problem for MLM-implicit.
	MegachunkElements int64
	// Cal carries the cost-model constants.
	Cal Calibration
}

// PaperSortConfig returns the Table 1 configuration for a problem size and
// input order.
func PaperSortConfig(elements int64, order workload.Order) Config {
	return Config{
		Elements: elements,
		Order:    order,
		Threads:  256,
		Cal:      DefaultCalibration(),
	}
}

// Validate reports whether the config is runnable.
func (c Config) Validate() error {
	if c.Elements <= 0 {
		return fmt.Errorf("mlmsim: elements %d must be positive", c.Elements)
	}
	if c.Threads <= 0 {
		return fmt.Errorf("mlmsim: threads %d must be positive", c.Threads)
	}
	if c.MegachunkElements < 0 {
		return fmt.Errorf("mlmsim: negative megachunk size %d", c.MegachunkElements)
	}
	return c.Cal.Validate()
}

// megachunk resolves the megachunk size for the algorithm: the paper uses
// 1 G elements (1.5 G for the 6 G runs) for the staged variants, and the
// whole problem for MLM-implicit.
func (c Config) megachunk(a mlmsort.Algorithm) int64 {
	if c.MegachunkElements > 0 {
		return c.MegachunkElements
	}
	if a == mlmsort.MLMImplicit {
		return c.Elements
	}
	mc := int64(1_000_000_000)
	if c.Elements >= 6_000_000_000 {
		mc = 1_500_000_000
	}
	if a == mlmsort.MLMHybrid {
		// Hybrid mode halves the scratchpad; megachunks must fit the
		// partition (50% of 16 GiB holds 1.07 G elements).
		if limit := units.ElementsForBytes(8 * units.GiB); mc > limit {
			mc = limit
		}
	}
	if c.Elements < mc {
		return c.Elements
	}
	return mc
}

// Plan builds the simulated phase plan for an algorithm. The machine's
// mode must match Mode(a).
func Plan(m *knl.Machine, a mlmsort.Algorithm, c Config) *core.Plan {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	if got := m.Config().Mode.Mode; got != Mode(a) {
		panic(fmt.Sprintf("mlmsim: %v needs mode %v, machine is in %v", a, Mode(a), got))
	}
	switch a {
	case mlmsort.GNUFlat:
		return c.gnuPlan(m, core.DDRPlaced)
	case mlmsort.GNUCache:
		return c.gnuPlan(m, core.CacheManaged)
	case mlmsort.GNUPreferred:
		return c.gnuPreferredPlan(m)
	case mlmsort.MLMDDr, mlmsort.MLMSort, mlmsort.MLMImplicit, mlmsort.MLMHybrid:
		return c.mlmPlan(m, a)
	case mlmsort.BasicChunked:
		return c.basicChunkedPlan(m)
	default:
		panic(fmt.Sprintf("mlmsim: unknown algorithm %v", a))
	}
}

// gnuPlan models GNU parallel mode sort (multiway mergesort): p local
// sorts, one parallel p-way merge into a temporary, and a copy back.
func (c Config) gnuPlan(m *knl.Machine, place core.Placement) *core.Plan {
	_, fComparison := orderFactors(c.Order)
	factor := fComparison * c.Cal.GNUWorkInflation
	perThread := c.Elements / int64(c.Threads)
	if perThread < 1 {
		perThread = 1
	}
	b := units.BytesForElements(c.Elements)

	plan := &core.Plan{Name: "GNU/" + place.String()}
	for _, k := range c.Cal.serialSortKernels(m, "local-sort", c.Threads, perThread, place, factor, false) {
		plan.Steps = append(plan.Steps, &core.KernelStep{Name: k.Label, Kernels: []core.Kernel{k}})
	}
	merge := c.Cal.mergeKernel(m, "multiway-merge", c.Threads, c.Threads, b, place, place, false)
	plan.Steps = append(plan.Steps, &core.KernelStep{Name: merge.Label, Kernels: []core.Kernel{merge}})

	// Copy back from the merge temporary: pure streaming at copy rates.
	// Touched-byte accounting: a copy thread moving SCopy payload touches
	// 2*SCopy bytes per second.
	copyBack := core.Kernel{
		Label:         "copy-back",
		Threads:       c.Threads,
		PerThread:     units.BytesPerSec(2 * float64(c.Cal.SCopy)),
		Passes:        1,
		WorkingSet:    b,
		WriteFraction: 0.5,
		Placement:     place,
	}
	plan.Steps = append(plan.Steps, &core.KernelStep{Name: copyBack.Label, Kernels: []core.Kernel{copyBack}})
	return plan
}

// gnuPreferredPlan models GNU parallel sort with numactl --preferred
// allocation (the Li et al. flat-mode configuration): the sort array fills
// MCDRAM first and spills to DDR; the merge temporary is allocated after
// the array and lands wherever is left (DDR for problems at or beyond
// MCDRAM capacity). Kernels see BlendedPlaced data at the measured HBW
// fraction.
func (c Config) gnuPreferredPlan(m *knl.Machine) *core.Plan {
	_, fComparison := orderFactors(c.Order)
	factor := fComparison * c.Cal.GNUWorkInflation
	perThread := c.Elements / int64(c.Threads)
	if perThread < 1 {
		perThread = 1
	}
	b := units.BytesForElements(c.Elements)

	// Place the two arrays through the policy heap.
	cfg := m.Config()
	heap := memkind.HeapFor(cfg.Memory, cfg.Mode)
	data, err := heap.Alloc(memkind.PolicyHBWPreferred, b, 0)
	if err != nil {
		panic(fmt.Sprintf("mlmsim: preferred data allocation failed: %v", err))
	}
	temp, err := heap.Alloc(memkind.PolicyHBWPreferred, b, 0)
	if err != nil {
		panic(fmt.Sprintf("mlmsim: preferred temp allocation failed: %v", err))
	}
	dataFrac := data.HBWFraction()
	tempFrac := temp.HBWFraction()
	heap.Free(temp)
	heap.Free(data)

	plan := &core.Plan{Name: "GNU-preferred"}
	// Local sorts stream the data array in place.
	sortKernel := c.Cal.serialSortKernels(m, "local-sort", c.Threads, perThread,
		core.DDRPlaced, factor, false)[0]
	sortKernel.Placement = core.BlendedPlaced
	sortKernel.HBWFraction = dataFrac
	// The blended per-thread rate: the DDR-resident share pays the latency
	// penalty.
	blend := dataFrac + (1-dataFrac)/c.Cal.DDRLatencyPenalty
	sortKernel.PerThread = units.BytesPerSec(float64(c.Cal.SSerial) / blend)
	plan.Steps = append(plan.Steps, &core.KernelStep{Name: sortKernel.Label, Kernels: []core.Kernel{sortKernel}})

	// Multiway merge reads the data array, writes the temporary.
	merge := c.Cal.mergeKernel(m, "multiway-merge", c.Threads, c.Threads, b,
		core.BlendedPlaced, core.BlendedPlaced, false)
	merge.HBWFraction = dataFrac // approximation: one fraction for both sides
	if tempFrac < dataFrac {
		merge.HBWFraction = (dataFrac + tempFrac) / 2
	}
	plan.Steps = append(plan.Steps, &core.KernelStep{Name: merge.Label, Kernels: []core.Kernel{merge}})

	copyBack := core.Kernel{
		Label:         "copy-back",
		Threads:       c.Threads,
		PerThread:     units.BytesPerSec(2 * float64(c.Cal.SCopy)),
		Passes:        1,
		WorkingSet:    b,
		WriteFraction: 0.5,
		Placement:     core.BlendedPlaced,
		HBWFraction:   (dataFrac + tempFrac) / 2,
	}
	plan.Steps = append(plan.Steps, &core.KernelStep{Name: copyBack.Label, Kernels: []core.Kernel{copyBack}})
	return plan
}

// mlmPlan models the MLM-sort family: per megachunk, (optional copy-in,)
// per-thread serial sorts, then a parallel multiway merge of the
// megachunk's runs to its output location; finally a K-way merge across
// megachunks when K > 1.
func (c Config) mlmPlan(m *knl.Machine, a mlmsort.Algorithm) *core.Plan {
	fSerial, _ := orderFactors(c.Order)
	mcElems := c.megachunk(a)
	k := int((c.Elements + mcElems - 1) / mcElems)
	if k < 1 {
		k = 1
	}
	plan := &core.Plan{Name: a.String()}

	for mc := 0; mc < k; mc++ {
		elems := mcElems
		if mc == k-1 {
			if rem := c.Elements - int64(k-1)*mcElems; rem > 0 {
				elems = rem
			}
		}
		mcBytes := units.BytesForElements(elems)
		perThread := elems / int64(c.Threads)
		if perThread < 1 {
			perThread = 1
		}
		prefix := fmt.Sprintf("mc%d/", mc)

		var sortPlace core.Placement
		staged := false
		switch a {
		case mlmsort.MLMSort, mlmsort.MLMHybrid:
			// Explicit copy-in DDR -> MCDRAM by all threads. Allocating
			// the staging block from the machine's scratchpad enforces the
			// flat-mode capacity limit on megachunk size (Section 4.2: the
			// chunk size "is ultimately limited by the size of the
			// MCDRAM").
			block, err := m.Scratchpad().Alloc(mcBytes)
			if err != nil {
				panic(fmt.Sprintf("mlmsim: megachunk of %v does not fit flat-mode MCDRAM: %v", mcBytes, err))
			}
			// Megachunks are staged one at a time; release before the next
			// iteration constructs its steps.
			m.Scratchpad().Free(block)
			plan.Steps = append(plan.Steps, &core.KernelStep{
				Name:    prefix + "copy-in",
				Kernels: []core.Kernel{c.copyInKernel(prefix+"copy-in", mcBytes)},
			})
			sortPlace = core.ScratchpadPlaced
			staged = true
		case mlmsort.MLMImplicit:
			sortPlace = core.CacheManaged
		default: // MLMDDr
			sortPlace = core.DDRPlaced
		}

		for _, kn := range c.Cal.serialSortKernels(m, prefix+"serial-sort", c.Threads, perThread, sortPlace, fSerial, staged) {
			plan.Steps = append(plan.Steps, &core.KernelStep{Name: kn.Label, Kernels: []core.Kernel{kn}})
		}

		// Megachunk merge: the chunk's c.Threads sorted runs merge to the
		// output area (DDR for the staged variants; through the cache for
		// implicit).
		var mergeSrc, mergeDst core.Placement
		mergeStaged := false
		switch a {
		case mlmsort.MLMSort, mlmsort.MLMHybrid:
			mergeSrc, mergeDst, mergeStaged = core.ScratchpadPlaced, core.DDRPlaced, true
		case mlmsort.MLMImplicit:
			mergeSrc, mergeDst = core.CacheManaged, core.CacheManaged
		default:
			mergeSrc, mergeDst = core.DDRPlaced, core.DDRPlaced
		}
		mk := c.Cal.mergeKernel(m, prefix+"megachunk-merge", c.Threads, c.Threads, mcBytes, mergeSrc, mergeDst, mergeStaged)
		plan.Steps = append(plan.Steps, &core.KernelStep{Name: mk.Label, Kernels: []core.Kernel{mk}})
	}

	// Final K-way merge across megachunks ("does not use the chunking
	// mechanisms or even explicitly take advantage of the MCDRAM").
	if k > 1 {
		place := core.DDRPlaced
		if a == mlmsort.MLMImplicit {
			place = core.CacheManaged
		}
		fm := c.Cal.mergeKernel(m, "final-merge", c.Threads, k,
			units.BytesForElements(c.Elements), place, place, false)
		plan.Steps = append(plan.Steps, &core.KernelStep{Name: fm.Label, Kernels: []core.Kernel{fm}})
	}
	return plan
}

// basicChunkedPlan models Bender et al.'s algorithm: MCDRAM-sized chunks
// sorted with the *parallel* sort (copy-in, GNU-style sort in MCDRAM, the
// chunk's merge writing back to DDR), then a final multiway merge. Its
// distinguishing cost is that the in-chunk sort inherits the parallel
// library's inflation — which is why it fails to beat GNU-cache, as the
// paper found.
func (c Config) basicChunkedPlan(m *knl.Machine) *core.Plan {
	_, fComparison := orderFactors(c.Order)
	factor := fComparison * c.Cal.GNUWorkInflation
	mcElems := c.megachunk(mlmsort.BasicChunked)
	k := int((c.Elements + mcElems - 1) / mcElems)
	plan := &core.Plan{Name: "Basic-chunked"}

	for mc := 0; mc < k; mc++ {
		elems := mcElems
		if mc == k-1 {
			if rem := c.Elements - int64(k-1)*mcElems; rem > 0 {
				elems = rem
			}
		}
		mcBytes := units.BytesForElements(elems)
		perThread := elems / int64(c.Threads)
		if perThread < 1 {
			perThread = 1
		}
		prefix := fmt.Sprintf("mc%d/", mc)

		block, err := m.Scratchpad().Alloc(mcBytes)
		if err != nil {
			panic(fmt.Sprintf("mlmsim: chunk of %v does not fit flat-mode MCDRAM: %v", mcBytes, err))
		}
		m.Scratchpad().Free(block) // chunks are staged one at a time
		plan.Steps = append(plan.Steps, &core.KernelStep{
			Name:    prefix + "copy-in",
			Kernels: []core.Kernel{c.copyInKernel(prefix+"copy-in", mcBytes)},
		})
		for _, kn := range c.Cal.serialSortKernels(m, prefix+"local-sort", c.Threads, perThread, core.ScratchpadPlaced, factor, true) {
			plan.Steps = append(plan.Steps, &core.KernelStep{Name: kn.Label, Kernels: []core.Kernel{kn}})
		}
		mk := c.Cal.mergeKernel(m, prefix+"chunk-merge", c.Threads, c.Threads, mcBytes,
			core.ScratchpadPlaced, core.DDRPlaced, true)
		plan.Steps = append(plan.Steps, &core.KernelStep{Name: mk.Label, Kernels: []core.Kernel{mk}})
	}
	if k > 1 {
		fm := c.Cal.mergeKernel(m, "final-merge", c.Threads, k,
			units.BytesForElements(c.Elements), core.DDRPlaced, core.DDRPlaced, false)
		plan.Steps = append(plan.Steps, &core.KernelStep{Name: fm.Label, Kernels: []core.Kernel{fm}})
	}
	return plan
}

func placementPtr(p core.Placement) *core.Placement { return &p }

// copyInKernel models an all-threads DDR -> MCDRAM staging copy in
// touched-byte accounting: each payload byte is one DDR read plus one
// MCDRAM write (touched = 2 x payload), and a copy thread moving SCopy
// payload touches 2*SCopy bytes per second.
func (c Config) copyInKernel(label string, payload units.Bytes) core.Kernel {
	return core.Kernel{
		Label:         label,
		Threads:       c.Threads,
		PerThread:     units.BytesPerSec(2 * float64(c.Cal.SCopy)),
		Passes:        1,
		WorkingSet:    payload,
		WriteFraction: 0.5,
		Placement:     core.DDRPlaced,
		DestPlacement: placementPtr(core.ScratchpadPlaced),
	}
}

// Machine builds the paper's machine in the algorithm's required mode.
func Machine(a mlmsort.Algorithm) *knl.Machine {
	return knl.MustNew(knl.PaperConfig(Mode(a)))
}
