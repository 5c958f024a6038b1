package cclang

// This file extends the exact-option table with the concretely-spelled
// options the evaluation's build scripts and adapters encounter most.
// GCC's full surface is 2314 options (paper §4.5); the parser covers the
// remainder through the family rules in options.go, while everything
// listed here gets precise style and category information — the
// difference matters when adapters must know what is safe to rewrite.

// warningOptions are the concretely-modeled -W spellings (the -W family
// rule catches the rest).
var warningOptions = []string{
	"-Wall", "-Wextra", "-Werror", "-Wpedantic", "-Wshadow", "-Wconversion",
	"-Wsign-conversion", "-Wfloat-equal", "-Wundef", "-Wcast-align",
	"-Wcast-qual", "-Wwrite-strings", "-Wswitch-default", "-Wswitch-enum",
	"-Wunreachable-code", "-Wformat", "-Wformat-security", "-Wuninitialized",
	"-Wmaybe-uninitialized", "-Wunused", "-Wunused-variable",
	"-Wunused-parameter", "-Wunused-function", "-Wunused-result",
	"-Wstrict-aliasing", "-Wstrict-overflow", "-Warray-bounds",
	"-Wvla", "-Wpadded", "-Winline", "-Wdouble-promotion",
	"-Wnull-dereference", "-Wimplicit-fallthrough", "-Wmissing-declarations",
	"-Wmissing-prototypes", "-Wold-style-definition", "-Wredundant-decls",
	"-Wnested-externs", "-Wlogical-op", "-Waggregate-return",
	"-Wno-unused", "-Wno-deprecated", "-Wno-error", "-Wno-sign-compare",
}

// optimizationFOptions are concretely-modeled -f optimization switches.
var optimizationFOptions = []string{
	"-funroll-loops", "-funroll-all-loops", "-fomit-frame-pointer",
	"-fno-omit-frame-pointer", "-finline-functions", "-fno-inline",
	"-fstrict-aliasing", "-fno-strict-aliasing", "-ffast-math",
	"-fno-fast-math", "-funsafe-math-optimizations", "-ffinite-math-only",
	"-fno-math-errno", "-freciprocal-math", "-fassociative-math",
	"-ftree-vectorize", "-fno-tree-vectorize", "-ftree-loop-vectorize",
	"-ftree-slp-vectorize", "-fvect-cost-model=dynamic",
	"-fprefetch-loop-arrays", "-fsplit-loops", "-funswitch-loops",
	"-fipa-pta", "-fipa-cp-clone", "-fdevirtualize-at-ltrans",
	"-floop-interchange", "-floop-unroll-and-jam", "-fgraphite-identity",
	"-fprofile-correction", "-fauto-profile", "-fbranch-probabilities",
	"-fschedule-insns", "-fschedule-insns2", "-fmodulo-sched",
	"-fgcse", "-fgcse-after-reload", "-fpredictive-commoning",
	"-falign-functions", "-falign-loops", "-fpeel-loops",
	"-fwhole-program", "-fno-plt", "-fmerge-all-constants",
	"-fsingle-precision-constant", "-fcx-limited-range",
	"-fexcess-precision=fast", "-ffp-contract=fast",
}

// codegenFOptions are concretely-modeled -f codegen switches (ABI- or
// semantics-relevant: adapters must preserve them).
var codegenFOptions = []string{
	"-fPIC", "-fpic", "-fPIE", "-fpie", "-fopenmp", "-fopenmp-simd",
	"-fopenacc", "-fstack-protector", "-fstack-protector-strong",
	"-fstack-protector-all", "-fno-stack-protector", "-fcf-protection",
	"-fvisibility=default", "-fvisibility=hidden", "-fvisibility=protected",
	"-ffunction-sections", "-fdata-sections", "-fcommon", "-fno-common",
	"-fshort-enums", "-fsigned-char", "-funsigned-char", "-fwrapv",
	"-ftrapv", "-fexceptions", "-fnon-call-exceptions", "-fsplit-stack",
	"-fkeep-inline-functions", "-fverbose-asm", "-fpack-struct",
	"-fsanitize=address", "-fsanitize=undefined", "-fsanitize=thread",
	"-fsanitize=leak", "-fno-sanitize-recover",
	"-flto", "-flto=auto", "-flto=thin", "-ffat-lto-objects",
	"-fno-fat-lto-objects", "-fno-lto", "-fuse-linker-plugin",
	"-fprofile-generate", "-fprofile-use", "-fprofile-arcs",
	"-ftest-coverage", "-fcoverage-mapping", "-fprofile-update=atomic",
}

// machineOptions are concretely-modeled -m switches across the two ISAs.
var machineOptions = []string{
	"-m32", "-m64", "-msse", "-msse2", "-msse3", "-mssse3", "-msse4",
	"-msse4.1", "-msse4.2", "-mavx", "-mavx2", "-mavx512f", "-mavx512cd",
	"-mavx512bw", "-mavx512dq", "-mavx512vl", "-mfma", "-mfma4",
	"-mbmi", "-mbmi2", "-mpopcnt", "-mlzcnt", "-maes", "-mpclmul",
	"-mf16c", "-mrdrnd", "-mfsgsbase", "-mxsave", "-mprefer-vector-width=128",
	"-mprefer-vector-width=256", "-mprefer-vector-width=512",
	"-mcmodel=small", "-mcmodel=medium", "-mcmodel=large",
	"-mfpmath=sse", "-mfpmath=387", "-mred-zone", "-mno-red-zone",
	"-msoft-float", "-mhard-float", "-mstackrealign",
	"-mgeneral-regs-only", "-mstrict-align", "-mno-strict-align",
	"-moutline-atomics", "-mno-outline-atomics", "-msve-vector-bits=128",
	"-msve-vector-bits=256", "-msve-vector-bits=scalable",
	"-mbranch-protection=standard", "-mlow-precision-recip-sqrt",
	"-mfix-cortex-a53-835769", "-momit-leaf-frame-pointer",
}

// languageOptions are standard-selection and dialect switches.
var languageOptions = []string{
	"-std=c89", "-std=c90", "-std=c99", "-std=c11", "-std=c17", "-std=c23",
	"-std=gnu89", "-std=gnu99", "-std=gnu11", "-std=gnu17",
	"-std=c++98", "-std=c++03", "-std=c++11", "-std=c++14", "-std=c++17",
	"-std=c++20", "-std=c++23", "-std=gnu++14", "-std=gnu++17",
	"-std=f95", "-std=f2003", "-std=f2008", "-std=f2018",
	"-ffreestanding", "-fhosted", "-fgnu89-inline", "-fpermissive",
	"-fms-extensions", "-fchar8_t", "-fcoroutines", "-fconcepts",
	"-fmodules-ts", "-fimplicit-none", "-ffixed-form", "-ffree-form",
	"-fdefault-real-8", "-fdefault-integer-8", "-fbackslash",
	"-fcray-pointer", "-frecursive", "-fno-automatic",
}

// debugOptions are concretely-modeled -g family spellings.
var debugOptions = []string{
	"-g0", "-g1", "-g2", "-g3", "-ggdb", "-ggdb3", "-gdwarf-2",
	"-gdwarf-4", "-gdwarf-5", "-gsplit-dwarf", "-gz", "-gstrict-dwarf",
	"-grecord-gcc-switches", "-fdebug-types-section",
	"-femit-class-debug-always", "-fvar-tracking",
}

// diagnosticOptions steer driver output and dumps.
var diagnosticOptions = []string{
	"-fdiagnostics-color=always", "-fdiagnostics-color=never",
	"-fdiagnostics-show-option", "-fmessage-length=0", "-fmax-errors=10",
	"-dumpbase", "-dumpdir", "-dD", "-dM", "-dI", "-dN",
	"-fstack-usage", "-fopt-info", "-fopt-info-vec", "-fopt-info-inline",
	"-ftime-report", "-fmem-report", "-Q", "--help=optimizers",
	"--help=warnings", "--help=target", "--version",
}
