package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"comtainer/internal/core"
	"comtainer/internal/core/cache"
	"comtainer/internal/fsim"
	"comtainer/internal/workloads"
)

// build performs the user side for one of the evaluation applications
// or a custom two-stage Containerfile (-containerfile, -context, -name):
// the build on coMtainer's Env/Base images with the hijacker recording,
// the front-end analysis and the cache-layer injection. The store it
// saves holds the dist image and the extended image (+coM).
func build(fs *flag.FlagSet) func() error {
	appName := fs.String("app", "", "application to build (one of the Table-2 apps)")
	cfPath := fs.String("containerfile", "", "build a custom two-stage Containerfile instead of a named app")
	ctxDir := fs.String("context", "", "build-context directory for -containerfile")
	name := fs.String("name", "app", "image name for -containerfile builds")
	isa := fs.String("isa", "x86-64", "target ISA: x86-64 or aarch64")
	out := fs.String("o", "", "output OCI layout directory or registry repository URL")
	conventional := fs.Bool("conventional", false, "build the generic image only (no coMtainer analysis)")
	obfuscate := fs.Bool("obfuscate", false, "obfuscate sources in the cache layer")
	ir := fs.Bool("ir", false, "distribute compiler IR instead of sources (locks package versions and ISA)")
	list := fs.Bool("list", false, "list available applications and exit")
	return func() error {
		if *list {
			var names []string
			for _, a := range workloads.Apps() {
				names = append(names, a.Name)
			}
			fmt.Println(strings.Join(names, " "))
			return nil
		}
		if (*appName == "" && *cfPath == "") || *out == "" {
			return usage("(-app <name> | -containerfile <file> -context <dir>) -isa <isa> -o <dir.oci|url>")
		}
		user, err := core.NewUserSide(canonISA(*isa))
		if err != nil {
			return err
		}
		opts := cache.Options{Obfuscate: *obfuscate}
		if *ir {
			opts.Format = cache.FormatIR
		}
		var res core.BuildResult
		switch {
		case *cfPath != "":
			cfText, err := os.ReadFile(*cfPath)
			if err != nil {
				return err
			}
			ctx := fsim.New()
			if *ctxDir != "" {
				if ctx, err = fsim.ImportDir(*ctxDir); err != nil {
					return err
				}
			}
			res, err = user.BuildContainerfile(*name, string(cfText), ctx, !*conventional, opts)
			if err != nil {
				return err
			}
		default:
			app, err := workloads.Find(*appName)
			if err != nil {
				return err
			}
			switch {
			case *conventional:
				res, err = user.BuildOriginal(app)
			case *ir:
				res, err = user.BuildExtendedIR(app)
			case *obfuscate:
				res, err = user.BuildExtendedObfuscated(app)
			default:
				res, err = user.BuildExtended(app)
			}
			if err != nil {
				return err
			}
		}
		if err := save(user.Repo, *out); err != nil {
			return err
		}
		fmt.Printf("built %s -> %s\n", res.DistTag, *out)
		if res.ExtendedTag != "" {
			fmt.Printf("extended image tagged %s (cache layer injected)\n", res.ExtendedTag)
		}
		return nil
	}
}

func canonISA(isa string) string {
	switch isa {
	case "aarch64", "arm64", "arm":
		return "aarch64"
	default:
		return "x86-64"
	}
}
