# The model-source digest every result-cache key covers: the first 64
# bits of a SHA-256 over the SHA-256 of each .h, .cc and CMakeLists.txt
# under SRC, in sorted relative-path order.
#
#   cmake -DSRC=<src> -DOUT=<header> -P source_digest.cmake
#       writes the header runtime/result_cache.cc includes.
#   cmake -DSRC=<src> -DHEADER=<header> -DSCRATCH=<dir> -P source_digest.cmake
#       fails unless HEADER holds the digest of SRC as it is now and a
#       copy of SRC with a comment appended to a kernel digests apart.

function(alberta_source_digest dir out)
    file(GLOB_RECURSE files RELATIVE "${dir}"
         "${dir}/*.h" "${dir}/*.cc" "${dir}/CMakeLists.txt")
    list(SORT files)
    set(manifest "")
    foreach(file IN LISTS files)
        file(SHA256 "${dir}/${file}" hash)
        string(APPEND manifest "${file} ${hash}\n")
    endforeach()
    string(SHA256 hash "${manifest}")
    string(SUBSTRING "${hash}" 0 16 hash)
    set(${out} "0x${hash}" PARENT_SCOPE)
endfunction()

alberta_source_digest("${SRC}" digest)
if(DEFINED OUT)
    file(WRITE "${OUT}" "// Generated by cmake/source_digest.cmake.\n"
                        "#define ALBERTA_SOURCE_DIGEST ${digest}ULL\n")
    return()
endif()

file(STRINGS "${HEADER}" line REGEX "ALBERTA_SOURCE_DIGEST")
if(NOT line MATCHES "${digest}ULL")
    message(FATAL_ERROR "stale ${HEADER}: the sources digest to ${digest}")
endif()
file(REMOVE_RECURSE "${SCRATCH}")
file(COPY "${SRC}/" DESTINATION "${SCRATCH}")
alberta_source_digest("${SCRATCH}" copied)
file(APPEND "${SCRATCH}/benchmarks/mcf/mincost.cc" "// edited\n")
alberta_source_digest("${SCRATCH}" edited)
file(REMOVE_RECURSE "${SCRATCH}")
if(NOT copied STREQUAL digest OR edited STREQUAL digest)
    message(FATAL_ERROR "digest ${digest}; of a copy ${copied}; "
                        "of the copy with mincost.cc edited ${edited}")
endif()
