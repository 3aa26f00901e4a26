// Command cczip compresses and decompresses real files with the library's
// codecs, block by block — a sanity tool for the LZRW1 implementation and a
// way to measure what a given file's pages would do inside the compression
// cache.
//
// Usage:
//
//	cczip [-codec lzrw1] [-block 4096] <input >output
//	cczip -d [-codec lzrw1] <input >output
//	cczip -stats [-codec lzrw1] [-block 4096] <file...>
//
// The stream format (3-byte length + compressed block) is a diagnostic
// format, not an archive format.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"compcache/internal/compress"
)

func main() {
	codecName := flag.String("codec", "lzrw1", "codec: "+strings.Join(compress.Names(), ", "))
	blockSize := flag.Int("block", 4096, "block size (the paper's page size)")
	decompress := flag.Bool("d", false, "decompress stdin to stdout")
	statsMode := flag.Bool("stats", false, "report per-page compression of the named files")
	flag.Parse()

	codec, err := compress.Lookup(*codecName)
	if err != nil {
		fatal(err)
	}

	switch {
	case *statsMode:
		for _, name := range flag.Args() {
			if err := report(codec, *blockSize, name); err != nil {
				fatal(err)
			}
		}
	case *decompress:
		if _, _, err := compress.DecompressStream(codec, os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
	default:
		in, out, err := compress.CompressStream(codec, *blockSize, os.Stdin, os.Stdout)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cczip: %d -> %d bytes (%.2f)\n", in, out, ratio(in, out))
	}
}

func report(codec compress.Codec, blockSize int, name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := compress.Analyze(codec, blockSize, 3, 4, f)
	if err != nil {
		return err
	}
	if rep.Blocks == 0 {
		fmt.Printf("%s: empty\n", name)
		return nil
	}
	fmt.Printf("%s: %d pages, ratio %.2f (%.1f%% fail the 4:3 retention threshold)\n",
		name, rep.Blocks, rep.Ratio(), 100*rep.FailFrac())
	return nil
}

func ratio(in, out int64) float64 {
	if in == 0 {
		return 1
	}
	return float64(out) / float64(in)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cczip:", err)
	os.Exit(1)
}
