// Package detclock forbids wall-clock time and global (unseeded) process
// randomness in the repository's deterministic packages.
//
// The paper's reproducibility claims — byte-identical serial/parallel
// suites, the rtds-bench -check regression gate, same-seed churn runs —
// hold only if nothing on a DES path reads a clock the simulation does not
// own or a random stream the seed does not own. time.Now and friends read
// the operating system; package-level math/rand functions share one
// process-global, lock-contended, unseedable-by-experiment source. Both
// are banned; seeded *rand.Rand values (rand.New(rand.NewSource(seed)))
// are the sanctioned randomness and pass untouched.
//
// Wall-clock code that legitimately lives in a deterministic package
// (wall-time measurement in the experiment harness, for example) escapes
// with
//
//	//lint:allow wallclock -- <justification>
//
// or a file-scoped //lint:file-allow for files that are wholly on the live
// side.
package detclock

import (
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the detclock check.
var Analyzer = &analysis.Analyzer{
	Name:   "detclock",
	Escape: "wallclock",
	Doc: "forbid wall-clock time (time.Now/Since/After/...) and global math/rand " +
		"in deterministic packages; seeded *rand.Rand sources are allowed",
	Run: run,
}

// forbiddenTime lists the package-level time functions that read or wait on
// the wall clock. Pure constructors and arithmetic (time.Unix, time.Date,
// Duration conversions) are deterministic and stay legal.
var forbiddenTime = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"Sleep":     true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// allowedRand lists the package-level math/rand functions that construct
// seeded sources instead of drawing from the global one.
var allowedRand = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true, // takes an explicit *rand.Rand
}

func run(pass *analysis.Pass) error {
	for ident, obj := range pass.TypesInfo.Uses {
		pkg := obj.Pkg()
		if pkg == nil {
			continue
		}
		switch pkg.Path() {
		case "time":
			fn, ok := obj.(*types.Func)
			if !ok || fn.Type().(*types.Signature).Recv() != nil {
				continue
			}
			if forbiddenTime[fn.Name()] {
				pass.Reportf(ident.Pos(),
					"wall-clock time.%s in a deterministic package: derive time from the simulation engine (Transport.Now/After)",
					fn.Name())
			}
		case "math/rand", "math/rand/v2":
			fn, ok := obj.(*types.Func)
			if !ok || fn.Type().(*types.Signature).Recv() != nil {
				continue // methods on *rand.Rand are seeded-source draws
			}
			if !allowedRand[fn.Name()] {
				pass.Reportf(ident.Pos(),
					"global rand.%s in a deterministic package: draw from a seeded *rand.Rand (rand.New(rand.NewSource(seed)))",
					fn.Name())
			}
		case "crypto/rand":
			// Everything in crypto/rand is OS entropy; even the package
			// variables (rand.Reader) are forbidden.
			pass.Reportf(ident.Pos(),
				"crypto/rand.%s in a deterministic package: OS entropy can never be replayed from a seed", obj.Name())
		}
	}
	return nil
}
